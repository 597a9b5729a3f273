// Observability: the wall-clock span domain.
//
// WallTrace is the serving-side counterpart of TraceEventSink: the same
// Chrome trace-event document, but timestamped in real microseconds
// since the recorder was constructed instead of simulated cycles or
// strike indices, and safe to feed from several threads at once (the
// daemon's loop thread and its executor both record into one trace).
// Each WallTrace owns a private TraceEventSink guarded by a mutex — it
// never touches a run's obs::Context trace, so the deterministic
// simulated-time domains stay single-writer and byte-identical whether
// or not a wall trace is live.
//
// The two clock domains share one viewer: wall-clock lanes register
// under their own process rows ("serve"), so a trace written by
// `serve --trace-out` opens in Perfetto with the request spans on real
// time and never mixes timestamps with a simulated-time lane.
//
// Determinism contract: recording is reporting only. A WallTrace holds
// no RNG, mutates no counters, and is consulted by no campaign code —
// ledger records and campaign counters are bit-identical with tracing
// on or off (tests/serve pins this).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "ftspm/obs/trace_sink.h"

namespace ftspm::obs {

class WallTrace {
 public:
  using LaneId = TraceEventSink::LaneId;

  /// The epoch (timestamp zero) is the moment of construction.
  WallTrace();

  /// Microseconds since construction; the ts every recorder overload
  /// stamps when the caller does not supply one.
  std::uint64_t now_us() const;

  /// Registers (or finds) a lane; see TraceEventSink::lane. Lane
  /// numbering follows first-registration order, which under concurrent
  /// recording is arrival order — the span *set* is what stays stable,
  /// not the lane ids.
  LaneId lane(std::string_view process, std::string_view thread);

  void begin(LaneId lane, std::string_view name,
             std::vector<TraceArg> args = {});
  void end(LaneId lane);
  /// One complete span with explicit wall-clock bounds (µs since the
  /// epoch); `end_us < start_us` is clamped to a zero-length span.
  void complete(LaneId lane, std::string_view name, std::uint64_t start_us,
                std::uint64_t end_us, std::vector<TraceArg> args = {});
  void instant(LaneId lane, std::string_view name,
               std::vector<TraceArg> args = {});
  void value(LaneId lane, std::string_view name, double value);

  /// Writes the trace document (see TraceEventSink::str) to `path`
  /// (throws ftspm::Error on I/O failure).
  void write_file(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  TraceEventSink sink_;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace ftspm::obs
