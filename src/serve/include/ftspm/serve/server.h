// The campaign daemon behind `ftspm_tool serve`.
//
// Threads: a loop thread and an executor thread, plus the shared
// exec::ThreadPool's workers and, with telemetry_path set, the
// telemetry writer; the count does not grow with connections. The loop
// owns every socket (the unix-domain listener, the wake pipe and each
// client, all non-blocking). It reads NdjsonReader-framed requests,
// answers ping, status, metrics, cancel and shutdown itself, and admits
// campaigns into a bounded priority queue. The executor drains that
// queue one request at a time onto the pool via run_campaign_spec() and
// appends every completed run to the ledger, with the record a one-shot
// `ftspm_tool campaign` writes.
//
// Every answer is appended to its connection's FIFO outbox, a memory
// operation, so no socket I/O happens under a shared lock, and
// `accepted` is queued under the queue lock ahead of any heartbeat or
// result. The executor tries one non-blocking send after appending; the
// loop sends the rest when the socket reports POLLOUT. A connection
// whose outbox passes kMaxOutboxBytes is closed as a slow consumer and
// counted in serve.requests{outcome=slow_consumer}; as with a hangup,
// its running request completes into the ledger and its queued ones
// are cancelled.
//
// Admission is explicit backpressure: a full queue answers
// error(overloaded) at once. Higher priority runs first; FIFO within a
// level. Cancellation is cooperative: a queued request is removed, a
// running one stops at chunk granularity via ExecConfig::cancel.
// Shutdown (request_stop(), signal-safe) stops accepting, cancels the
// running request and answers everything queued error(shutting_down);
// wait() returns once both threads are joined. A served run reproduces
// the one-shot run bit for bit: counters depend only on the spec.
//
// Live telemetry: a serving-layer obs::Registry
// (serve.queue_wait_ms{priority=...} and serve.service_ms{kind=...}
// histograms, a serve.queue_depth gauge, serve.requests{outcome=...}
// counters) that the `metrics` frame snapshots, the telemetry writer
// streams as NDJSON and the drain folds into ServerConfig::obs. With
// trace_path set, the lifecycle is recorded as wall-clock spans
// (obs::WallTrace): one lane per request id plus a queue-depth lane.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "ftspm/serve/protocol.h"
#include "ftspm/util/ndjson.h"

namespace ftspm::obs {
struct Context;
}  // namespace ftspm::obs

namespace ftspm::serve {

/// Unsent bytes one connection may hold: a run's worth of frames (at
/// most kMaxSpecHeartbeats heartbeats of about 60 bytes, and a result
/// of a few hundred) about eight times over.
inline constexpr std::size_t kMaxOutboxBytes = std::size_t{512} << 10;

struct ServerConfig {
  /// Unix-domain socket path; bound (and unlinked) by start().
  std::string socket_path;
  /// Shared pool workers (0 = hardware concurrency).
  std::uint32_t jobs = 1;
  /// Admission queue bound; the queue never grows past this.
  std::uint64_t max_queue = 16;
  /// Append completed runs here (empty = no ledger).
  std::string ledger_path;
  /// Per-frame byte cap enforced by the socket framing.
  std::size_t max_frame_bytes = NdjsonReader::kDefaultMaxRecordBytes;
  /// Concurrent connections; excess connects are answered with
  /// error(overloaded) and closed.
  std::uint64_t max_connections = 64;
  /// Write a wall-clock Chrome trace of every request's lifecycle —
  /// admitted → queued → running (child spans per shard) → flushing
  /// result — here when the daemon drains (empty = no trace).
  /// Reporting only: ledger records and campaign counters are
  /// bit-identical with tracing on or off.
  std::string trace_path;
  /// Append periodic NDJSON snapshots of the serving-layer registry
  /// here through an obs::PeriodicWriter (empty = disabled), the
  /// writer behind the campaign heartbeat too: off the hot path, and
  /// the first and final snapshots are guaranteed however short the
  /// run.
  std::string telemetry_path;
  /// Milliseconds between telemetry snapshots (clamped to >= 1).
  std::uint32_t telemetry_interval_ms = 1000;
  /// The session's telemetry (nullable, not owned): every served run
  /// books its campaign telemetry here, and the drain folds the
  /// serving-layer registry into obs->registry. Only the executor
  /// thread writes it while the daemon runs.
  obs::Context* obs = nullptr;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  /// Stops and joins everything still running (request_stop + wait).
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listener and spawns the loop and executor threads.
  /// Throws on bind/listen failure (e.g. a stale socket path on a
  /// filesystem that forbids unlink).
  void start();

  /// Begins shutdown; safe from any thread and from signal handlers
  /// (one byte written to the wake pipe). Idempotent.
  void request_stop() noexcept;

  /// Blocks until the daemon is fully drained and joined.
  void wait();

  /// Point-in-time aggregate counters (any thread). After wait() this
  /// keeps answering the final drained snapshot; before start() it is
  /// all zeros.
  ServerStatus status() const;

  const ServerConfig& config() const noexcept { return config_; }

 private:
  struct Impl;
  ServerConfig config_;
  /// The drained snapshot wait() leaves behind for status().
  ServerStatus final_status_{};
  std::unique_ptr<Impl> impl_;
};

}  // namespace ftspm::serve
