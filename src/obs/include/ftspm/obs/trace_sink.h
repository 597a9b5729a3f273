// Observability: structured event tracing.
//
// TraceEventSink accumulates Chrome trace-event-format records —
// loadable by chrome://tracing and by Perfetto's trace viewer — and
// serializes them as one deterministic JSON document. Tracks ("lanes")
// are registered up front as (process, thread) pairs and become named
// rows in the viewer via metadata events.
//
// Timestamps are caller-supplied integers, not wall time: the
// simulator passes simulated cycles, the fault campaign passes strike
// indices, the MDA mapper passes decision indices (each on its own
// process row so the domains never mix). This keeps traces
// byte-identical across runs with the same seed, which the golden
// tests assert.
//
// The sink is single-writer: a run reaches it through the obs::Context
// it was handed (context.h), and only the coordinating thread emits.
//
// Event vocabulary (Chrome `ph` phases):
//   begin/end   B/E  nested spans (phase markers, call stack)
//   complete    X    one span with an explicit duration (DMA transfer)
//   instant     i    a point event (eviction, strike)
//   value       C    a counter sample (cache fills, campaign outcomes)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ftspm::obs {

/// One key/value pair attached to an event's `args` object. `value`
/// holds a raw JSON literal (already quoted/escaped for strings).
struct TraceArg {
  std::string key;
  std::string value;

  static TraceArg str(std::string_view key, std::string_view value);
  static TraceArg num(std::string_view key, std::uint64_t value);
  static TraceArg num(std::string_view key, double value);
};

class TraceEventSink {
 public:
  using LaneId = std::uint32_t;

  TraceEventSink() = default;

  /// Registers (or finds) the track named `thread` inside the process
  /// row `process`. Registration order fixes pid/tid numbering, so
  /// register lanes deterministically.
  LaneId lane(std::string_view process, std::string_view thread);

  void begin(LaneId lane, std::string_view name, std::uint64_t ts,
             std::vector<TraceArg> args = {});
  void end(LaneId lane, std::uint64_t ts);
  void complete(LaneId lane, std::string_view name, std::uint64_t ts,
                std::uint64_t dur, std::vector<TraceArg> args = {});
  void instant(LaneId lane, std::string_view name, std::uint64_t ts,
               std::vector<TraceArg> args = {});
  void value(LaneId lane, std::string_view name, std::uint64_t ts,
             double value);

  /// Appends `other`'s events after this sink's own: each of `other`'s
  /// lanes is registered here by its (process, thread) name, in
  /// `other`'s registration order, and each event goes onto the lane
  /// its own maps to. A run recorded into a sink of its own and then
  /// appended reads as if it had been recorded here. `other` must be
  /// another sink.
  void append(const TraceEventSink& other);

  std::size_t event_count() const noexcept { return events_.size(); }

  /// The complete trace document:
  /// {"traceEvents":[...],"displayTimeUnit":"ms"}.
  std::string str() const;

  /// Writes str() to `path` (throws ftspm::Error on I/O failure).
  void write_file(const std::string& path) const;

 private:
  struct Lane {
    std::string process;
    std::string thread;
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
  };
  struct Event {
    char phase;  // 'B','E','X','i','C'
    LaneId lane;
    std::string name;
    std::uint64_t ts;
    std::uint64_t dur;     // X only
    double counter_value;  // C only
    std::vector<TraceArg> args;
  };

  std::vector<Lane> lanes_;
  std::vector<std::string> processes_;  ///< pid = index + 1.
  std::vector<Event> events_;
};

}  // namespace ftspm::obs
