#include "ftspm/serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
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
#include "ftspm/obs/context.h"
#include "ftspm/obs/ledger.h"
#include "ftspm/obs/periodic_writer.h"
#include "ftspm/obs/wall_trace.h"
#include "ftspm/serve/campaign_spec.h"
#include "ftspm/serve/load.h"
#include "ftspm/util/error.h"
#include "ftspm/util/json.h"

namespace ftspm::serve {

namespace {

/// One accepted client. The loop thread owns the socket: only it reads,
/// polls and closes it. Any thread may queue a frame; the outbox is what
/// they share, under `mutex`. The socket is non-blocking, so a send
/// under `mutex` never waits on the peer.
struct Connection {
  /// What flush() leaves for the loop to do.
  enum class State : std::uint8_t {
    Idle,     ///< Everything queued was sent.
    Pending,  ///< Bytes wait for the socket to take them (POLLOUT).
    Slow,     ///< The outbox passed kMaxOutboxBytes: close it.
    Gone,     ///< Closed, or a send failed: drop it.
  };

  Connection(int socket, std::size_t max_frame_bytes)
      : fd(socket), reader(max_frame_bytes) {}
  ~Connection() { close(); }

  /// Appends one frame. Frames to a closed or slow connection are
  /// dropped: a run never dies because its requester hung up or stopped
  /// reading.
  void post(std::string_view frame) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (!open_locked()) return;
    outbox.append(frame).push_back('\n');
    slow = outbox.size() > kMaxOutboxBytes;
  }

  /// Sends whatever the socket takes now, without blocking.
  State flush() {
    const std::lock_guard<std::mutex> lock(mutex);
    while (state_locked() == State::Pending) {
      const ssize_t n = ::send(fd, outbox.data(), outbox.size(), MSG_NOSIGNAL);
      if (n > 0)
        outbox.erase(0, static_cast<std::size_t>(n));
      else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        break;
      else if (n == 0 || errno != EINTR)
        broken = true;
    }
    return state_locked();
  }

  /// Neither closed nor slow: what it asked for is still worth running.
  bool open() {
    const std::lock_guard<std::mutex> lock(mutex);
    return open_locked();
  }

  /// Loop thread only.
  void close() {
    const std::lock_guard<std::mutex> lock(mutex);
    if (fd >= 0) ::close(fd);
    fd = -1;
    std::string().swap(outbox);
  }

  /// The socket, -1 once closed. The loop thread, its only writer, may
  /// read it without the lock.
  int fd;
  NdjsonReader reader;   ///< Loop thread only.
  bool hang_up = false;  ///< Close once the outbox is sent. Loop only.

 private:
  State state_locked() const {
    if (fd < 0 || broken) return State::Gone;
    if (slow) return State::Slow;
    return outbox.empty() ? State::Idle : State::Pending;
  }
  bool open_locked() const { return fd >= 0 && !broken && !slow; }

  std::mutex mutex;
  std::string outbox;  ///< Unsent bytes, oldest first.
  bool slow = false;
  bool broken = false;
};

using ConnectionPtr = std::shared_ptr<Connection>;

int make_unix_listener(const std::string& path) {
  FTSPM_REQUIRE(!path.empty(), "serve: socket path must not be empty");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  FTSPM_REQUIRE(path.size() < sizeof(addr.sun_path),
                "serve: socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd =
      ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  FTSPM_CHECK(fd >= 0, "serve: cannot create unix socket");
  ::unlink(path.c_str());  // A stale socket from a crashed daemon.
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    throw Error("serve: cannot bind/listen on '" + path + "'");
  }
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

  int listen_fd = -1;
  /// Wakes the loop: a stop request, or frames the executor queued
  /// that the socket did not take at once. Both ends non-blocking.
  int wake_pipe[2] = {-1, -1};
  std::atomic<bool> stop_requested{false};
  std::atomic<bool> executor_done{false};

  std::unique_ptr<exec::ThreadPool> pool;
  std::thread loop_thread;
  std::thread executor_thread;

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
  obs::LedgerCursor ledger_cursor;  // Guarded by ledger_mutex.

  // Serving-layer telemetry. `telemetry` is the live registry behind
  // the `metrics` frame and the telemetry emitter; it is fed from the
  // loop and executor threads under `telemetry_mutex`.
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

  void loop();
  void accept_all(std::vector<ConnectionPtr>& conns);
  void read_from(const ConnectionPtr& conn);
  void begin_shutdown();
  void executor_loop();
  void handle_request(const ConnectionPtr& conn, const Request& req);
  void admit_campaign(const ConnectionPtr& conn, Request req);
  void handle_cancel(const ConnectionPtr& conn, const std::string& target);
  ServerStatus snapshot() const;
  void run_one(PendingRequest req);
  void fold_into_registry() const;

  void wake() noexcept {
    const char byte = 'w';
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe[1], &byte, 1);
  }
  /// Queues a frame from outside the loop thread and tries one send;
  /// the loop finishes what the socket did not take.
  void deliver(const ConnectionPtr& conn, std::string_view frame) {
    conn->post(frame);
    if (conn->flush() != Connection::State::Idle) wake();
  }

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
  FTSPM_CHECK(::pipe2(impl->wake_pipe, O_NONBLOCK | O_CLOEXEC) == 0,
              "serve: cannot create wake pipe");
  impl->listen_fd = make_unix_listener(config_.socket_path);
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
  impl->loop_thread = std::thread([i = impl.get()] { i->loop(); });
  impl_ = std::move(impl);
}

void Server::request_stop() noexcept {
  if (impl_ == nullptr) return;
  // Async-signal-safe: a lock-free store and one write. The loop owns
  // the orderly part of the shutdown.
  impl_->stop_requested.store(true, std::memory_order_release);
  impl_->wake();
}

void Server::wait() {
  if (impl_ == nullptr) return;
  Impl& impl = *impl_;
  // The loop returns once the executor is done and the last frames
  // are flushed.
  if (impl.loop_thread.joinable()) impl.loop_thread.join();
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

void Server::Impl::loop() {
  std::vector<ConnectionPtr> conns;
  std::vector<pollfd> fds;
  bool draining = false;
  while (true) {
    if (!draining && stop_requested.load(std::memory_order_acquire)) {
      draining = true;
      begin_shutdown();
    }
    if (draining && executor_done.load(std::memory_order_acquire)) break;

    // Send what was queued since the last pass, drop the connections
    // that are done, and poll the rest (in `conns` order).
    fds.assign({pollfd{wake_pipe[0], POLLIN, 0},
                pollfd{listen_fd, POLLIN, 0}});  // -1 once closed: ignored.
    std::erase_if(conns, [&](const ConnectionPtr& conn) {
      const Connection::State state = conn->flush();
      if (state == Connection::State::Slow) record_outcome("slow_consumer");
      const bool pending = state == Connection::State::Pending;
      if (state == Connection::State::Slow ||
          state == Connection::State::Gone || (!pending && conn->hang_up)) {
        conn->close();
        return true;
      }
      fds.push_back(pollfd{conn->fd,
                           static_cast<short>((pending ? POLLOUT : 0) |
                                              (conn->hang_up ? 0 : POLLIN)),
                           0});
      return false;
    });
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno != EINTR) stop_requested.store(true);
      continue;
    }
    if ((fds[0].revents & POLLIN) != 0) {
      char drain[64];
      while (::read(wake_pipe[0], drain, sizeof(drain)) > 0) {
      }
    }
    for (std::size_t i = 0; i + 2 < fds.size(); ++i)
      if ((fds[i + 2].revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
          !conns[i]->hang_up)
        read_from(conns[i]);
    if ((fds[1].revents & POLLIN) != 0) accept_all(conns);
  }
  // Drained: the executor has queued its last frame. One last attempt
  // to send it; the connections close as `conns` goes out of scope.
  for (const ConnectionPtr& conn : conns) conn->flush();
}

void Server::Impl::accept_all(std::vector<ConnectionPtr>& conns) {
  while (true) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // Nothing more to accept (EAGAIN) or a failure.
    auto conn = std::make_shared<Connection>(fd, cfg.max_frame_bytes);
    if (conns.size() >= cfg.max_connections) {
      // A fresh socket takes one short frame without blocking.
      conn->post(error_frame("", ErrorCode::Overloaded,
                             "too many connections"));
      conn->flush();
      continue;  // The destructor closes it.
    }
    conns.push_back(std::move(conn));
  }
}

void Server::Impl::read_from(const ConnectionPtr& conn) {
  char buf[1 << 16];
  const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
    return;
  if (n <= 0) {
    conn->close();  // The peer hung up; its queued frames are dropped.
    return;
  }
  try {
    conn->reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    while (auto doc = conn->reader.next()) {
      Request req;
      try {
        req = parse_request(*doc);
      } catch (const Error& e) {
        conn->post(error_frame("", ErrorCode::BadRequest, e.what()));
        continue;  // Frame was well-formed JSON; the stream is intact.
      }
      handle_request(conn, req);
    }
  } catch (const Error& e) {
    // Unparseable or oversized frame: the byte stream itself can no
    // longer be trusted, so answer once and drop the connection.
    conn->post(error_frame("", ErrorCode::BadRequest, e.what()));
    conn->hang_up = true;
  }
}

void Server::Impl::begin_shutdown() {
  // Stop admissions, cancel the running request, bounce the queued
  // ones. The loop keeps serving its connections until the executor is
  // done, so the cancelled run's last frames still go out.
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
    req.conn->post(error_frame(req.id, ErrorCode::ShuttingDown,
                               "daemon is shutting down"));
  }
  if (!orphaned.empty()) record_queue_depth(0);
  ::close(listen_fd);
  listen_fd = -1;
}

void Server::Impl::handle_request(const ConnectionPtr& conn,
                                  const Request& req) {
  switch (req.type) {
    case Request::Type::Ping:
      conn->post(pong_frame());
      return;
    case Request::Type::Status:
      conn->post(status_frame(snapshot()));
      return;
    case Request::Type::Metrics:
      // Queue snapshot first, then the registry (lock order). The
      // registry JSON schema is deterministic even though the values
      // are live — tests/serve pins it.
      conn->post(metrics_frame(snapshot(), uptime_ms(), registry_json()));
      return;
    case Request::Type::Shutdown: {
      conn->post(shutting_down_frame());
      stop_requested.store(true, std::memory_order_release);
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
      conn->post(error_frame(req.id, ErrorCode::ShuttingDown,
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
      conn->post(error_frame(req.id, ErrorCode::Overloaded,
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
    // Queued under queue_mutex so the executor (which pops under the
    // same lock) cannot queue this request's result frame first.
    admitted.fetch_add(1, std::memory_order_relaxed);
    conn->post(accepted_frame(pending.id, depth));
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
      conn->post(cancelled_frame(target));
      return;
    }
  }
  if (!found) {
    conn->post(error_frame(target, ErrorCode::NotFound,
                           "no queued or running request '" + target + "'"));
    return;
  }
  cancelled.fetch_add(1, std::memory_order_relaxed);
  record_outcome("cancelled");
  if (trace != nullptr) {
    trace->end(lane);  // "queued"
    trace->instant(lane, "cancelled");
  }
  requester->post(
      error_frame(target, ErrorCode::Cancelled, "cancelled while queued"));
  if (requester != conn) conn->post(cancelled_frame(target));
}

void Server::Impl::executor_loop() {
  while (true) {
    PendingRequest req;
    std::uint64_t depth = 0;
    {
      std::unique_lock<std::mutex> lock(queue_mutex);
      queue_cv.wait(lock, [this] { return stopping || !queue.empty(); });
      if (queue.empty()) {
        if (stopping) break;
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
  executor_done.store(true, std::memory_order_release);
  wake();
}

void Server::Impl::run_one(PendingRequest req) {
  if (req.cancel->load(std::memory_order_relaxed) || !req.conn->open()) {
    // Cancelled (or orphaned by a hangup) before it ever ran.
    cancelled.fetch_add(1, std::memory_order_relaxed);
    record_outcome("cancelled");
    if (trace != nullptr) trace->instant(req.lane, "cancelled");
    deliver(req.conn, error_frame(req.id, ErrorCode::Cancelled,
                                  "cancelled before execution"));
    return;
  }
  const std::string_view kind =
      req.spec.recover || req.spec.scrub_interval != 0 ? "recovery"
                                                       : "static";
  CampaignRunHooks hooks;
  hooks.pool = pool.get();
  hooks.cancel = req.cancel.get();
  hooks.obs = cfg.obs;
  if (req.spec.heartbeat_strikes != 0) {
    hooks.progress = [this, &req](std::uint64_t done, std::uint64_t total) {
      deliver(req.conn, heartbeat_frame(req.id, done, total));
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
    deliver(req.conn, error_frame(req.id, ErrorCode::Internal, e.what()));
    return;
  }
  if (trace != nullptr) trace->end(req.lane);  // "running"
  record_service(kind, outcome.wall_ms);
  if (!outcome.complete) {
    cancelled.fetch_add(1, std::memory_order_relaxed);
    record_outcome("cancelled");
    if (trace != nullptr) trace->instant(req.lane, "cancelled");
    deliver(req.conn,
            error_frame(req.id, ErrorCode::Cancelled, "cancelled mid-run"));
    return;
  }
  if (trace != nullptr) trace->begin(req.lane, "flushing result");
  obs::LedgerRecord record = campaign_spec_record(req.spec, outcome);
  std::string run_id;
  if (!cfg.ledger_path.empty()) {
    // Same id convention as the one-shot tool: run-<index> over the
    // records already present (lenient count, like append_run_record),
    // reading only what was appended since the last result.
    const std::lock_guard<std::mutex> lock(ledger_mutex);
    record.id = "run-" + std::to_string(obs::count_ledger_records(
                             cfg.ledger_path, ledger_cursor));
    run_id = record.id;
    obs::append_ledger(record, cfg.ledger_path);
  }
  completed.fetch_add(1, std::memory_order_relaxed);
  record_outcome("completed");
  deliver(req.conn, result_frame(req.id, record, run_id, /*complete=*/true));
  if (trace != nullptr) trace->end(req.lane);  // "flushing result"
}

void Server::Impl::fold_into_registry() const {
  // Post-join, single-threaded: the serving-layer registry — the
  // serve.requests{outcome=...} counters plus the queue-wait/service
  // histograms and queue-depth gauge — folds into the session's
  // registry, so a --metrics-out snapshot of a serve session carries
  // the request mix next to the campaign counters.
  if (cfg.obs == nullptr) return;
  const std::lock_guard<std::mutex> lock(telemetry_mutex);
  cfg.obs->registry.merge_from(telemetry);
}

}  // namespace ftspm::serve
