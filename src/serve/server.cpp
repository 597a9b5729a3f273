#include "ftspm/serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <netinet/in.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "ftspm/exec/thread_pool.h"
#include "ftspm/obs/ledger.h"
#include "ftspm/obs/metrics.h"
#include "ftspm/obs/periodic_writer.h"
#include "ftspm/obs/wall_trace.h"
#include "ftspm/serve/campaign_spec.h"
#include "ftspm/serve/load.h"
#include "ftspm/util/error.h"
#include "ftspm/util/json.h"

namespace ftspm::serve {

namespace {

/// One accepted client. Shared between its reader thread, queued
/// requests, and the executor; writes are serialized by `write_mutex`
/// because the executor streams heartbeats/results while the reader
/// may be answering a ping on the same fd.
struct Connection {
  int fd = -1;
  std::mutex write_mutex;
  std::atomic<bool> open{true};

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

using ConnectionPtr = std::shared_ptr<Connection>;

/// Writes one NDJSON frame. A failed write (peer gone) marks the
/// connection closed; frames to a closed connection are dropped — the
/// run itself must never die because its requester hung up.
void write_frame(const ConnectionPtr& conn, std::string_view frame) {
  if (!conn->open.load(std::memory_order_acquire)) return;
  const std::lock_guard<std::mutex> lock(conn->write_mutex);
  std::string line(frame);
  line += '\n';
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = ::send(conn->fd, line.data() + sent, line.size() - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) {
      conn->open.store(false, std::memory_order_release);
      return;
    }
    sent += static_cast<std::size_t>(n);
  }
}

int make_unix_listener(const std::string& path) {
  FTSPM_REQUIRE(!path.empty(), "serve: socket path must not be empty");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  FTSPM_REQUIRE(path.size() < sizeof(addr.sun_path),
                "serve: socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  FTSPM_CHECK(fd >= 0, "serve: cannot create unix socket");
  ::unlink(path.c_str());  // A stale socket from a crashed daemon.
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    throw Error("serve: cannot bind/listen on '" + path + "'");
  }
  return fd;
}

int make_tcp_listener(std::uint16_t port, std::uint16_t& bound) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  FTSPM_CHECK(fd >= 0, "serve: cannot create tcp socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // Loopback only.
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    throw Error("serve: cannot bind/listen on 127.0.0.1:" +
                std::to_string(port));
  }
  sockaddr_in actual{};
  socklen_t len = sizeof(actual);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len);
  bound = ntohs(actual.sin_port);
  return fd;
}

/// One admitted campaign waiting for (or holding) the executor.
struct PendingRequest {
  std::string id;
  std::uint32_t priority = 0;
  std::uint64_t seq = 0;  ///< Admission order; FIFO within a priority.
  CampaignSpec spec;
  ConnectionPtr conn;
  std::shared_ptr<std::atomic<bool>> cancel;
  /// Admission wall-clock stamp (queue-wait attribution).
  std::chrono::steady_clock::time_point admitted_at;
  /// The request's wall-trace lane; meaningful only when tracing.
  obs::WallTrace::LaneId lane = 0;
};

}  // namespace

struct Server::Impl {
  explicit Impl(const ServerConfig& config) : cfg(config) {}

  const ServerConfig& cfg;

  int unix_fd = -1;
  int tcp_fd = -1;
  int wake_pipe[2] = {-1, -1};

  std::unique_ptr<exec::ThreadPool> pool;
  std::thread accept_thread;
  std::thread executor_thread;
  std::mutex reader_mutex;  ///< Guards `readers`/`connections`.
  std::vector<std::thread> readers;
  std::vector<std::weak_ptr<Connection>> connections;
  std::atomic<std::uint64_t> live_connections{0};

  // Admission queue + executor handshake.
  mutable std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<PendingRequest> queue;
  bool stopping = false;
  std::uint64_t next_seq = 0;
  std::string running_id;                          // Guarded by queue_mutex.
  std::shared_ptr<std::atomic<bool>> running_cancel;  // Likewise.

  // Aggregate counters for status frames (lock-free readers).
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> rejected_overload{0};
  std::atomic<std::uint64_t> cancelled{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<bool> accepting{false};

  std::mutex ledger_mutex;

  // Serving-layer telemetry. `telemetry` is the live registry behind
  // the `metrics` frame and the telemetry emitter; it is fed from
  // reader, accept, and executor threads under `telemetry_mutex`.
  // Lock order: queue_mutex before telemetry_mutex, never the reverse
  // (telemetry_line snapshots the queue *before* taking its own lock).
  // The wall trace locks internally and imposes no ordering.
  mutable std::mutex telemetry_mutex;
  obs::Registry telemetry;
  std::unique_ptr<obs::WallTrace> trace;
  obs::WallTrace::LaneId admission_lane = 0;  ///< Shed/shutdown marks.
  obs::WallTrace::LaneId queue_lane = 0;      ///< Queue-depth counter.
  /// The telemetry snapshot stream (ServerConfig::telemetry_path).
  std::unique_ptr<obs::PeriodicWriter> emitter;
  std::atomic<std::uint64_t> telemetry_seq{0};
  std::chrono::steady_clock::time_point started_at;

  void accept_loop();
  void reader_loop(ConnectionPtr conn);
  void executor_loop();
  void handle_request(const ConnectionPtr& conn, const Request& req);
  void admit_campaign(const ConnectionPtr& conn, Request req);
  void handle_cancel(const ConnectionPtr& conn, const std::string& target);
  ServerStatus snapshot() const;
  void run_one(PendingRequest req);
  void fold_into_registry() const;

  double uptime_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - started_at)
        .count();
  }
  /// One serve.requests{outcome=...} tick. Callers may hold queue_mutex.
  void record_outcome(std::string_view outcome) {
    const std::lock_guard<std::mutex> lock(telemetry_mutex);
    telemetry.counter("serve.requests", obs::LabelSet{{"outcome",
                                                       std::string(outcome)}})
        .add(1);
  }
  /// Gauge + trace counter for the admission queue depth.
  void record_queue_depth(std::uint64_t depth) {
    {
      const std::lock_guard<std::mutex> lock(telemetry_mutex);
      telemetry.gauge("serve.queue_depth").set(static_cast<double>(depth));
    }
    if (trace != nullptr)
      trace->value(queue_lane, "serve.queue_depth",
                   static_cast<double>(depth));
  }
  /// Dequeue instrumentation: closes the queued span and attributes the
  /// wait to the request's priority class.
  void note_dequeued(const PendingRequest& req, std::uint64_t depth) {
    const double wait_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() -
                               req.admitted_at)
                               .count();
    {
      const std::lock_guard<std::mutex> lock(telemetry_mutex);
      telemetry
          .histogram("serve.queue_wait_ms",
                     obs::LabelSet{{"priority",
                                    std::to_string(req.priority)}},
                     load_latency_bounds())
          .observe(wait_ms);
    }
    if (trace != nullptr) trace->end(req.lane);  // "queued"
    record_queue_depth(depth);
  }
  /// Service-time attribution, labelled by campaign kind.
  void record_service(std::string_view kind, double wall_ms) {
    const std::lock_guard<std::mutex> lock(telemetry_mutex);
    telemetry
        .histogram("serve.service_ms",
                   obs::LabelSet{{"kind", std::string(kind)}},
                   load_latency_bounds())
        .observe(wall_ms);
  }
  std::string registry_json() const {
    const std::lock_guard<std::mutex> lock(telemetry_mutex);
    return telemetry.to_json();
  }
  /// One telemetry NDJSON record. Snapshots the queue first, then the
  /// registry — see the lock-order note above.
  std::string telemetry_line(bool final) {
    const ServerStatus s = snapshot();
    const std::string registry = registry_json();
    JsonWriter w;
    w.begin_object()
        .field("schema", std::uint64_t{1})
        .field("event", "serve_telemetry")
        .field("seq", telemetry_seq.fetch_add(1, std::memory_order_relaxed))
        .field("final", final)
        .field("wall_ms", uptime_ms())
        .field("accepting", s.accepting)
        .field("queued", s.queued)
        .field("running", s.running)
        .field("admitted", s.admitted)
        .field("completed", s.completed)
        .field("rejected_overload", s.rejected_overload)
        .field("cancelled", s.cancelled)
        .field("failed", s.failed);
    w.raw_field("registry", registry);
    w.end_object();
    return w.str();
  }
};

Server::Server(ServerConfig config) : config_(std::move(config)) {
  final_status_.accepting = false;  // status() before start().
}

Server::~Server() {
  if (impl_ != nullptr) {
    request_stop();
    wait();
  }
}

void Server::start() {
  FTSPM_REQUIRE(impl_ == nullptr, "serve: server already started");
  auto impl = std::make_unique<Impl>(config_);
  FTSPM_CHECK(::pipe(impl->wake_pipe) == 0, "serve: cannot create wake pipe");
  impl->unix_fd = make_unix_listener(config_.socket_path);
  if (config_.tcp_port != 0)
    impl->tcp_fd = make_tcp_listener(config_.tcp_port, tcp_port_);
  impl->pool = std::make_unique<exec::ThreadPool>(config_.jobs);
  impl->started_at = std::chrono::steady_clock::now();
  if (!config_.trace_path.empty()) {
    impl->trace = std::make_unique<obs::WallTrace>();
    impl->admission_lane = impl->trace->lane("serve", "admission");
    impl->queue_lane = impl->trace->lane("serve", "queue");
  }
  if (!config_.telemetry_path.empty())
    impl->emitter = std::make_unique<obs::PeriodicWriter>(
        "telemetry", config_.telemetry_path, config_.telemetry_interval_ms,
        [i = impl.get()](bool final) { return i->telemetry_line(final); });
  impl->accepting.store(true, std::memory_order_release);
  impl->executor_thread = std::thread([i = impl.get()] { i->executor_loop(); });
  impl->accept_thread = std::thread([i = impl.get()] { i->accept_loop(); });
  impl_ = std::move(impl);
}

void Server::request_stop() noexcept {
  if (impl_ == nullptr) return;
  // Async-signal-safe: one write, no locks. The accept loop owns the
  // orderly part of the shutdown.
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(impl_->wake_pipe[1], &byte, 1);
}

void Server::wait() {
  if (impl_ == nullptr) return;
  Impl& impl = *impl_;
  if (impl.accept_thread.joinable()) impl.accept_thread.join();
  {
    // The accept loop has exited: no new readers can appear.
    const std::lock_guard<std::mutex> lock(impl.reader_mutex);
    for (std::thread& t : impl.readers)
      if (t.joinable()) t.join();
    impl.readers.clear();
  }
  {
    const std::lock_guard<std::mutex> lock(impl.queue_mutex);
    impl.stopping = true;
  }
  impl.queue_cv.notify_all();
  if (impl.executor_thread.joinable()) impl.executor_thread.join();
  if (impl.emitter != nullptr) {
    // After the executor join, so the final record carries the drained
    // counters.
    impl.emitter->stop();
    impl.emitter.reset();
  }
  impl.fold_into_registry();
  if (impl.trace != nullptr) {
    try {
      impl.trace->write_file(config_.trace_path);
    } catch (const std::exception& e) {
      // wait() runs from the destructor too; report, don't throw.
      std::fprintf(stderr, "warning: trace write to '%s' failed: %s\n",
                   config_.trace_path.c_str(), e.what());
    }
  }
  final_status_ = impl.snapshot();
  for (const int fd : {impl.wake_pipe[0], impl.wake_pipe[1]})
    if (fd >= 0) ::close(fd);
  impl.wake_pipe[0] = impl.wake_pipe[1] = -1;
  if (!config_.socket_path.empty()) ::unlink(config_.socket_path.c_str());
  impl_.reset();
}

ServerStatus Server::status() const {
  // After wait() the threads are gone; answer the drained snapshot so
  // the CLI can print its exit summary.
  return impl_ != nullptr ? impl_->snapshot() : final_status_;
}

ServerStatus Server::Impl::snapshot() const {
  ServerStatus s;
  s.accepting = accepting.load(std::memory_order_acquire);
  s.admitted = admitted.load(std::memory_order_relaxed);
  s.completed = completed.load(std::memory_order_relaxed);
  s.rejected_overload = rejected_overload.load(std::memory_order_relaxed);
  s.cancelled = cancelled.load(std::memory_order_relaxed);
  s.failed = failed.load(std::memory_order_relaxed);
  s.max_queue = cfg.max_queue;
  s.jobs = pool != nullptr ? pool->size() : cfg.jobs;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex);
    s.queued = queue.size();
    s.running_id = running_id;
    s.running = running_id.empty() ? 0 : 1;
  }
  return s;
}

void Server::Impl::accept_loop() {
  while (true) {
    pollfd fds[3];
    nfds_t nfds = 0;
    fds[nfds++] = pollfd{wake_pipe[0], POLLIN, 0};
    fds[nfds++] = pollfd{unix_fd, POLLIN, 0};
    if (tcp_fd >= 0) fds[nfds++] = pollfd{tcp_fd, POLLIN, 0};
    const int rc = ::poll(fds, nfds, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) break;  // Stop requested.
    for (nfds_t i = 1; i < nfds; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int client = ::accept(fds[i].fd, nullptr, nullptr);
      if (client < 0) continue;
      auto conn = std::make_shared<Connection>();
      conn->fd = client;
      if (live_connections.load(std::memory_order_relaxed) >=
          cfg.max_connections) {
        write_frame(conn, error_frame("", ErrorCode::Overloaded,
                                      "too many connections"));
        continue;  // conn dtor closes the fd.
      }
      live_connections.fetch_add(1, std::memory_order_relaxed);
      const std::lock_guard<std::mutex> lock(reader_mutex);
      connections.push_back(conn);
      readers.emplace_back([this, conn] { reader_loop(conn); });
    }
  }

  // Shutdown: stop admissions, cancel the running request, bounce the
  // queued ones. Reader threads see closed listeners only; they drain
  // naturally when their clients hang up or the process exits.
  accepting.store(false, std::memory_order_release);
  std::deque<PendingRequest> orphaned;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex);
    stopping = true;
    orphaned.swap(queue);
    if (running_cancel != nullptr)
      running_cancel->store(true, std::memory_order_relaxed);
  }
  queue_cv.notify_all();
  for (const PendingRequest& req : orphaned) {
    cancelled.fetch_add(1, std::memory_order_relaxed);
    record_outcome("cancelled");
    if (trace != nullptr) {
      trace->end(req.lane);  // "queued"
      trace->instant(req.lane, "shutdown");
    }
    write_frame(req.conn, error_frame(req.id, ErrorCode::ShuttingDown,
                                      "daemon is shutting down"));
  }
  if (!orphaned.empty()) record_queue_depth(0);
  for (const int fd : {unix_fd, tcp_fd})
    if (fd >= 0) ::close(fd);
  unix_fd = tcp_fd = -1;
  {
    // Unblock reader threads parked in recv(): a half-close makes
    // recv return 0 without yanking the fd out from under a writer.
    const std::lock_guard<std::mutex> lock(reader_mutex);
    for (const std::weak_ptr<Connection>& weak : connections)
      if (const ConnectionPtr conn = weak.lock())
        ::shutdown(conn->fd, SHUT_RD);
  }
}

void Server::Impl::reader_loop(ConnectionPtr conn) {
  NdjsonReader reader(cfg.max_frame_bytes);
  char buf[4096];
  while (conn->open.load(std::memory_order_acquire)) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    try {
      reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      while (auto doc = reader.next()) {
        Request req;
        try {
          req = parse_request(*doc);
        } catch (const Error& e) {
          write_frame(conn,
                      error_frame("", ErrorCode::BadRequest, e.what()));
          continue;  // Frame was well-formed JSON; the stream is intact.
        }
        handle_request(conn, req);
      }
    } catch (const Error& e) {
      // Unparseable or oversized frame: the byte stream itself can no
      // longer be trusted, so answer once and drop the connection.
      write_frame(conn, error_frame("", ErrorCode::BadRequest, e.what()));
      break;
    }
  }
  conn->open.store(false, std::memory_order_release);
  live_connections.fetch_sub(1, std::memory_order_relaxed);
}

void Server::Impl::handle_request(const ConnectionPtr& conn,
                                  const Request& req) {
  switch (req.type) {
    case Request::Type::Ping:
      write_frame(conn, pong_frame());
      return;
    case Request::Type::Status:
      write_frame(conn, status_frame(snapshot()));
      return;
    case Request::Type::Metrics:
      // Queue snapshot first, then the registry (lock order). The
      // registry JSON schema is deterministic even though the values
      // are live — tests/serve pins it.
      write_frame(conn, metrics_frame(snapshot(), uptime_ms(),
                                      registry_json()));
      return;
    case Request::Type::Shutdown: {
      write_frame(conn, shutting_down_frame());
      const char byte = 's';
      [[maybe_unused]] const ssize_t n = ::write(wake_pipe[1], &byte, 1);
      return;
    }
    case Request::Type::Cancel:
      handle_cancel(conn, req.id);
      return;
    case Request::Type::Campaign:
      admit_campaign(conn, req);
      return;
  }
}

void Server::Impl::admit_campaign(const ConnectionPtr& conn, Request req) {
  PendingRequest pending;
  pending.priority = req.priority;
  pending.spec = req.spec;
  pending.conn = conn;
  pending.cancel = std::make_shared<std::atomic<bool>>(false);
  pending.admitted_at = std::chrono::steady_clock::now();
  std::uint64_t depth = 0;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex);
    if (stopping) {
      write_frame(conn, error_frame(req.id, ErrorCode::ShuttingDown,
                                    "daemon is shutting down"));
      return;
    }
    if (queue.size() >= cfg.max_queue) {
      rejected_overload.fetch_add(1, std::memory_order_relaxed);
      record_outcome("rejected_overload");
      if (trace != nullptr)
        trace->instant(admission_lane, "shed",
                       {obs::TraceArg::str("id", req.id),
                        obs::TraceArg::num(
                            "priority", std::uint64_t{req.priority})});
      write_frame(conn,
                  error_frame(req.id, ErrorCode::Overloaded,
                              "admission queue full (" +
                                  std::to_string(cfg.max_queue) + ")"));
      return;
    }
    pending.seq = next_seq++;
    pending.id = !req.id.empty() ? req.id
                                 : "req-" + std::to_string(pending.seq);
    if (trace != nullptr) {
      pending.lane = trace->lane("serve", "req " + pending.id);
      trace->instant(
          pending.lane, "admitted",
          {obs::TraceArg::num("priority", std::uint64_t{pending.priority}),
           obs::TraceArg::num("queue_depth", queue.size() + 1)});
      trace->begin(pending.lane, "queued");
    }
    queue.push_back(pending);
    depth = queue.size();
    record_queue_depth(depth);
    // Written under queue_mutex so the executor (which pops under the
    // same lock) cannot emit this request's result frame first.
    admitted.fetch_add(1, std::memory_order_relaxed);
    write_frame(conn, accepted_frame(pending.id, depth));
  }
  queue_cv.notify_one();
}

void Server::Impl::handle_cancel(const ConnectionPtr& conn,
                                 const std::string& target) {
  ConnectionPtr requester;
  bool found = false;
  obs::WallTrace::LaneId lane = 0;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex);
    const auto it = std::find_if(
        queue.begin(), queue.end(),
        [&](const PendingRequest& p) { return p.id == target; });
    if (it != queue.end()) {
      requester = it->conn;
      lane = it->lane;
      queue.erase(it);
      found = true;
      record_queue_depth(queue.size());
    } else if (running_id == target && running_cancel != nullptr) {
      // The executor notices at the next chunk boundary and answers
      // the requester with error(cancelled) itself.
      running_cancel->store(true, std::memory_order_relaxed);
      write_frame(conn, cancelled_frame(target));
      return;
    }
  }
  if (!found) {
    write_frame(conn, error_frame(target, ErrorCode::NotFound,
                                  "no queued or running request '" + target +
                                      "'"));
    return;
  }
  cancelled.fetch_add(1, std::memory_order_relaxed);
  record_outcome("cancelled");
  if (trace != nullptr) {
    trace->end(lane);  // "queued"
    trace->instant(lane, "cancelled");
  }
  write_frame(requester, error_frame(target, ErrorCode::Cancelled,
                                     "cancelled while queued"));
  if (requester != conn) write_frame(conn, cancelled_frame(target));
}

void Server::Impl::executor_loop() {
  while (true) {
    PendingRequest req;
    std::uint64_t depth = 0;
    {
      std::unique_lock<std::mutex> lock(queue_mutex);
      queue_cv.wait(lock, [this] { return stopping || !queue.empty(); });
      if (queue.empty()) {
        if (stopping) return;
        continue;
      }
      // Highest priority first; admission order within a level.
      const auto best = std::min_element(
          queue.begin(), queue.end(),
          [](const PendingRequest& a, const PendingRequest& b) {
            if (a.priority != b.priority) return a.priority > b.priority;
            return a.seq < b.seq;
          });
      req = std::move(*best);
      queue.erase(best);
      depth = queue.size();
      running_id = req.id;
      running_cancel = req.cancel;
    }
    note_dequeued(req, depth);
    run_one(std::move(req));
    {
      const std::lock_guard<std::mutex> lock(queue_mutex);
      running_id.clear();
      running_cancel.reset();
    }
  }
}

void Server::Impl::run_one(PendingRequest req) {
  if (req.cancel->load(std::memory_order_relaxed) ||
      !req.conn->open.load(std::memory_order_acquire)) {
    // Cancelled (or orphaned by a hangup) before it ever ran.
    cancelled.fetch_add(1, std::memory_order_relaxed);
    record_outcome("cancelled");
    if (trace != nullptr) trace->instant(req.lane, "cancelled");
    write_frame(req.conn, error_frame(req.id, ErrorCode::Cancelled,
                                      "cancelled before execution"));
    return;
  }
  const std::string_view kind =
      req.spec.recover || req.spec.scrub_interval != 0 ? "recovery"
                                                       : "static";
  CampaignRunHooks hooks;
  hooks.pool = pool.get();
  hooks.cancel = req.cancel.get();
  if (req.spec.heartbeat_strikes != 0) {
    hooks.progress = [this, &req](std::uint64_t done, std::uint64_t total) {
      write_frame(req.conn, heartbeat_frame(req.id, done, total));
    };
  }
  std::uint64_t running_start_us = 0;
  if (trace != nullptr) {
    running_start_us = trace->now_us();
    trace->begin(req.lane, "running",
                 {obs::TraceArg::str("kind", kind),
                  obs::TraceArg::num("strikes", req.spec.strikes),
                  obs::TraceArg::num(
                      "shards", std::uint64_t{req.spec.shards})});
    // Shard child spans: the runner stamps task start/finish against
    // its own epoch (taken just after `running` opens), so offsetting
    // by running_start_us places each shard inside the parent span.
    // Reporting only — the callback never touches counters.
    hooks.shard_span = [this, lane = req.lane, running_start_us](
                           std::uint32_t shard, std::uint64_t start_ns,
                           std::uint64_t end_ns) {
      trace->complete(lane, "shard " + std::to_string(shard),
                      running_start_us + start_ns / 1000,
                      running_start_us + end_ns / 1000);
    };
  }
  CampaignOutcome outcome;
  try {
    outcome = run_campaign_spec(req.spec, hooks);
  } catch (const std::exception& e) {
    failed.fetch_add(1, std::memory_order_relaxed);
    record_outcome("failed");
    if (trace != nullptr) {
      trace->end(req.lane);  // "running"
      trace->instant(req.lane, "failed");
    }
    write_frame(req.conn, error_frame(req.id, ErrorCode::Internal, e.what()));
    return;
  }
  if (trace != nullptr) trace->end(req.lane);  // "running"
  record_service(kind, outcome.wall_ms);
  if (!outcome.complete) {
    cancelled.fetch_add(1, std::memory_order_relaxed);
    record_outcome("cancelled");
    if (trace != nullptr) trace->instant(req.lane, "cancelled");
    write_frame(req.conn, error_frame(req.id, ErrorCode::Cancelled,
                                      "cancelled mid-run"));
    return;
  }
  if (trace != nullptr) trace->begin(req.lane, "flushing result");
  obs::LedgerRecord record = campaign_spec_record(req.spec, outcome);
  std::string run_id;
  if (!cfg.ledger_path.empty()) {
    // Same id convention as the one-shot tool: run-<index> over the
    // records already present (lenient scan, like append_run_record).
    const std::lock_guard<std::mutex> lock(ledger_mutex);
    record.id = "run-" + std::to_string(
                             obs::scan_ledger(cfg.ledger_path).records.size());
    run_id = record.id;
    obs::append_ledger(record, cfg.ledger_path);
  }
  completed.fetch_add(1, std::memory_order_relaxed);
  record_outcome("completed");
  write_frame(req.conn, result_frame(req.id, record, run_id,
                                     /*complete=*/true));
  if (trace != nullptr) trace->end(req.lane);  // "flushing result"
}

void Server::Impl::fold_into_registry() const {
  // Post-join, single-threaded: the serving-layer registry — the
  // serve.requests{outcome=...} counters plus the queue-wait/service
  // histograms and queue-depth gauge — folds into the process registry,
  // so a --metrics-out snapshot of a serve session carries the request
  // mix next to the campaign counters.
  if (!obs::enabled()) return;
  const std::lock_guard<std::mutex> lock(telemetry_mutex);
  obs::registry().merge_from(telemetry);
}

}  // namespace ftspm::serve
