// Observability: the telemetry context.
//
// One Context is one run's telemetry: the metrics registry it books
// counters into, plus the optional trace sink and event log it emits
// records into. Telemetry is a value passed down the call graph, never
// process state: an instrumented function takes an `obs::Context*`, and
// a null pointer means telemetry is off (the default everywhere). Two
// runs in one process with two contexts keep separate telemetry.
//
// A context is single-writer. Whoever passes it to a run lets that run
// write it from the calling thread only: the parallel runners book
// their workers' results on the coordinating thread after the join.
// A worker gets no context, or one of its own that the coordinating
// thread folds in after the join (run_suite_parallel).
#pragma once

#include "ftspm/obs/event_log.h"
#include "ftspm/obs/metrics.h"
#include "ftspm/obs/trace_sink.h"

namespace ftspm::obs {

struct Context {
  Registry registry;
  /// Simulated-time trace (nullable; not owned).
  TraceEventSink* trace = nullptr;
  /// Lifecycle event log (nullable; not owned).
  EventLog* events = nullptr;
};

}  // namespace ftspm::obs
