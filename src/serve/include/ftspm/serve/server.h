// The campaign daemon behind `ftspm_tool serve`.
//
// One Server owns: the listening sockets (a unix-domain socket, plus an
// optional 127.0.0.1 TCP listener), one reader thread per accepted
// connection (NdjsonReader-framed requests), a bounded priority
// admission queue, and a single executor thread that drains the queue
// onto one shared exec::ThreadPool via run_campaign_spec(). Every
// completed run is appended to the configured ledger with the same
// record a one-shot `ftspm_tool campaign` writes.
//
// Admission is explicit backpressure: a full queue answers
// error(overloaded) immediately — the daemon never queues unboundedly
// and never silently drops a request. Higher priority runs first; FIFO
// within a priority level. Cancellation is cooperative: a queued
// request is removed outright, a running one stops at chunk granularity
// via ExecConfig::cancel.
//
// Shutdown (request_stop(), signal-safe) stops accepting, cancels the
// running request, rejects everything still queued with
// error(shutting_down), and joins every thread; wait() returns once the
// daemon is fully drained. Determinism: the executor runs one request
// at a time on the shared pool, and counters depend only on the spec —
// a served run reproduces the one-shot run bit for bit.
//
// Live telemetry: every request is tallied into a serving-layer
// obs::Registry (serve.queue_wait_ms{priority=...} and
// serve.service_ms{kind=...} histograms, a serve.queue_depth gauge,
// serve.requests{outcome=...} counters) that the `metrics` frame
// snapshots on demand, the telemetry thread streams as NDJSON, and the
// drain folds into the process registry. With trace_path set, the same
// lifecycle is recorded as wall-clock spans (obs::WallTrace) — one
// lane per request id plus a queue-depth counter lane.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "ftspm/serve/protocol.h"
#include "ftspm/util/ndjson.h"

namespace ftspm::serve {

struct ServerConfig {
  /// Unix-domain socket path; bound (and unlinked) by start().
  std::string socket_path;
  /// Also listen on 127.0.0.1:tcp_port when non-zero.
  std::uint16_t tcp_port = 0;
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
};

class Server {
 public:
  explicit Server(ServerConfig config);
  /// Stops and joins everything still running (request_stop + wait).
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listeners and spawns the accept + executor threads.
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
  /// The bound TCP port (differs from config when tcp_port was 0 —
  /// not currently used, reserved for ephemeral-port tests).
  std::uint16_t bound_tcp_port() const noexcept { return tcp_port_; }

 private:
  struct Impl;
  ServerConfig config_;
  std::uint16_t tcp_port_ = 0;
  /// The drained snapshot wait() leaves behind for status().
  ServerStatus final_status_{};
  std::unique_ptr<Impl> impl_;
};

}  // namespace ftspm::serve
