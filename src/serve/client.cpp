#include "ftspm/serve/client.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "ftspm/util/error.h"

namespace ftspm::serve {

Client::Client(int fd) : fd_(fd) {}

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), reader_(std::move(other.reader_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    reader_ = std::move(other.reader_);
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client Client::connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  FTSPM_REQUIRE(!path.empty() && path.size() < sizeof(addr.sun_path),
                "serve client: bad socket path '" + path + "'");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  FTSPM_CHECK(fd >= 0, "serve client: cannot create socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw Error("serve client: cannot connect to '" + path + "'");
  }
  return Client(fd);
}

void Client::send_line(std::string_view frame) {
  FTSPM_REQUIRE(fd_ >= 0, "serve client: not connected");
  std::string line(frame);
  line += '\n';
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n =
        ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    FTSPM_CHECK(n > 0, "serve client: send failed (daemon gone?)");
    sent += static_cast<std::size_t>(n);
  }
}

JsonValue Client::next_frame() {
  while (true)
    if (std::optional<JsonValue> frame = poll_frame(-1))
      return std::move(*frame);
}

std::optional<JsonValue> Client::poll_frame(int timeout_ms) {
  while (true) {
    if (auto doc = reader_.next()) return std::move(*doc);
    FTSPM_CHECK(!reader_.exhausted(),
                "serve client: connection closed by daemon");
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0 && errno == EINTR) continue;
    if (rc == 0) return std::nullopt;
    FTSPM_CHECK(rc > 0, "serve client: poll failed");
    char buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) {
      reader_.finish();
      continue;  // Drain a final unterminated frame, then throw above.
    }
    reader_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    timeout_ms = 0;  // Only a probe after the first read.
  }
}

std::string Client::submit(const CampaignSpec& spec, std::string_view id,
                           std::uint32_t priority) {
  send_line(campaign_request(spec, id, priority));
  // The daemon queues the accepted/error answer before the request can
  // run, so it is the next frame *for this id* — but heartbeats and
  // results of earlier submissions may interleave ahead of it.
  while (true) {
    const JsonValue frame = next_frame();
    const JsonValue* type = frame.find("type");
    FTSPM_CHECK(type != nullptr && type->is_string(),
                "serve client: malformed frame from daemon");
    if (type->string == "heartbeat" || type->string == "result" ||
        type->string == "cancelled")
      continue;  // Belongs to an earlier in-flight request.
    if (type->string == "accepted") return frame.at("id").string;
    if (type->string == "error")
      throw Error("serve: " + frame.at("code").string + ": " +
                  frame.at("message").string);
    throw Error("serve client: unexpected '" + type->string +
                "' frame while awaiting admission");
  }
}

void Client::ping() {
  send_line(ping_request());
  const JsonValue frame = next_frame();
  const JsonValue* type = frame.find("type");
  FTSPM_CHECK(type != nullptr && type->is_string() && type->string == "pong",
              "serve client: expected pong");
}

}  // namespace ftspm::serve
