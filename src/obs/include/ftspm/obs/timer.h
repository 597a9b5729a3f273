// Observability: RAII spans.
//
// ScopedTimer measures wall-clock time into a registry TimerStat —
// cheap progress/ETA bookkeeping that never enters deterministic
// dumps (see SnapshotOptions::include_wall_time).
//
// PhaseSpan brackets a region of *simulated* (or otherwise
// deterministic) time on a trace lane: it emits a 'B' event on
// construction and the matching 'E' on destruction, reading the
// timestamp from a caller-supplied clock. The simulator uses its
// running cycle count as the clock; the campaign its strike index.
#pragma once

#include <chrono>
#include <cstdint>
#include <string_view>
#include <utility>

#include "ftspm/obs/metrics.h"
#include "ftspm/obs/trace_sink.h"

namespace ftspm::obs {

/// Accumulates the scope's wall-clock duration into
/// registry->timer(name). Inactive (and free of clock calls) when
/// `registry` is null.
class ScopedTimer {
 public:
  ScopedTimer(Registry* registry, std::string_view name)
      : stat_(registry != nullptr ? &registry->timer(name) : nullptr) {
    if (stat_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (stat_ == nullptr) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - start_);
    stat_->record_ns(static_cast<std::uint64_t>(ns.count()));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  TimerStat* stat_;
  std::chrono::steady_clock::time_point start_{};
};

/// Emits a begin/end span on `lane` of `sink` using `Clock` (a
/// callable returning the current deterministic timestamp). A null
/// sink makes the span a no-op.
template <typename Clock>
class PhaseSpan {
 public:
  PhaseSpan(TraceEventSink* sink, TraceEventSink::LaneId lane,
            std::string_view name, Clock clock)
      : sink_(sink), lane_(lane), clock_(std::move(clock)) {
    if (sink_ != nullptr) sink_->begin(lane_, name, clock_());
  }
  ~PhaseSpan() {
    if (sink_ != nullptr) sink_->end(lane_, clock_());
  }
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

 private:
  TraceEventSink* sink_;
  TraceEventSink::LaneId lane_;
  Clock clock_;
};

template <typename Clock>
PhaseSpan(TraceEventSink*, TraceEventSink::LaneId, std::string_view, Clock)
    -> PhaseSpan<Clock>;

}  // namespace ftspm::obs
