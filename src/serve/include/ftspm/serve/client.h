// serve::Client — a blocking NDJSON-frame connection to the daemon.
//
// Thin by design: it owns the socket fd and the incremental framing
// (util::NdjsonReader), and leaves protocol choreography (submit, then
// read accepted/heartbeat/result frames) to the caller — the load
// injector multiplexes many in-flight requests per connection, so the
// client cannot assume request/response lockstep.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "ftspm/serve/protocol.h"
#include "ftspm/util/json.h"
#include "ftspm/util/ndjson.h"

namespace ftspm::serve {

class Client {
 public:
  /// Connects to a daemon's unix-domain socket. Throws on failure.
  static Client connect_unix(const std::string& path);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// Sends one frame (a newline is appended). Throws on a dead socket.
  void send_line(std::string_view frame);

  /// Blocks for the next frame. Throws Error on EOF/socket failure —
  /// the daemon never half-answers, so EOF mid-conversation is an
  /// error, not an end-of-stream.
  JsonValue next_frame();

  /// Polls for a frame for up to `timeout_ms` (0 = nonblocking probe).
  /// std::nullopt on timeout; throws on EOF/socket failure.
  std::optional<JsonValue> poll_frame(int timeout_ms);

  /// Submits a campaign and returns the id the daemon echoed in its
  /// accepted frame; throws Error carrying code+message on an error
  /// frame (e.g. overloaded). Any other interleaved frame is a
  /// protocol violation and throws.
  std::string submit(const CampaignSpec& spec, std::string_view id = "",
                     std::uint32_t priority = 0);

  /// ping → pong round-trip; throws when the daemon is unreachable.
  void ping();

  int fd() const noexcept { return fd_; }

 private:
  explicit Client(int fd);

  int fd_ = -1;
  NdjsonReader reader_;
};

}  // namespace ftspm::serve
