#include "ftspm/report/suite_runner.h"

#include <chrono>
#include <cmath>
#include <mutex>
#include <optional>
#include <utility>

#include "ftspm/exec/thread_pool.h"
#include "ftspm/obs/context.h"
#include "ftspm/obs/timer.h"
#include "ftspm/util/error.h"

namespace ftspm {

std::vector<SuiteRow> run_suite(const StructureEvaluator& evaluator,
                                std::uint64_t scale_divisor,
                                const SuiteProgress& progress,
                                obs::Context* obs) {
  obs::TraceEventSink* trace = obs != nullptr ? obs->trace : nullptr;
  const obs::TraceEventSink::LaneId lane =
      trace != nullptr ? trace->lane("suite", "benchmarks") : 0;
  obs::EventLog* events = obs != nullptr ? obs->events : nullptr;
  std::uint64_t cumulative_cycles = 0;

  std::vector<SuiteRow> rows;
  rows.reserve(kMiBenchmarkCount);
  std::size_t done = 0;
  for (MiBenchmark bench : all_benchmarks()) {
    const std::string name = to_string(bench);
    if (events != nullptr)
      events->emit("phase_start", cumulative_cycles,
                   {obs::TraceArg::str("kind", "suite"),
                    obs::TraceArg::str("benchmark", name)});
    std::vector<SystemResult> results;
    {
      const obs::ScopedTimer timer(obs != nullptr ? &obs->registry : nullptr,
                                   "suite." + name);
      const Workload workload = make_benchmark(bench, scale_divisor);
      results = evaluator.evaluate_all(workload, obs);
    }
    FTSPM_CHECK(results.size() == 3, "expected three structures");
    if (trace != nullptr) {
      // Span the benchmark over its own FTSPM run on a cumulative
      // simulated-cycle axis (deterministic, unlike wall time).
      trace->complete(lane, name, cumulative_cycles,
                      results[0].run.total_cycles,
                      {obs::TraceArg::num("cycles",
                                          results[0].run.total_cycles)});
    }
    if (events != nullptr)
      events->emit("phase_end",
                   cumulative_cycles + results[0].run.total_cycles,
                   {obs::TraceArg::str("kind", "suite"),
                    obs::TraceArg::str("benchmark", name),
                    obs::TraceArg::num("cycles",
                                       results[0].run.total_cycles)});
    cumulative_cycles += results[0].run.total_cycles;
    rows.push_back(SuiteRow{bench, name, std::move(results[0]),
                            std::move(results[1]), std::move(results[2])});
    ++done;
    if (progress) progress(done, kMiBenchmarkCount, name);
  }
  return rows;
}

std::vector<SuiteRow> run_suite_parallel(const StructureEvaluator& evaluator,
                                         std::uint64_t scale_divisor,
                                         std::uint32_t jobs,
                                         const SuiteProgress& progress,
                                         obs::Context* obs) {
  if (jobs <= 1) return run_suite(evaluator, scale_divisor, progress, obs);

  const std::vector<MiBenchmark> benchmarks = [] {
    std::vector<MiBenchmark> v;
    for (MiBenchmark b : all_benchmarks()) v.push_back(b);
    return v;
  }();
  std::vector<std::optional<SuiteRow>> slots(benchmarks.size());
  std::vector<std::uint64_t> wall_ns(benchmarks.size(), 0);
  std::mutex progress_mutex;
  std::size_t completed = 0;

  exec::ThreadPool pool(jobs);
  parallel_for(pool, benchmarks.size(), [&](std::size_t i) {
    // Workers get no context; the per-benchmark timers and spans are
    // emitted below, in order.
    const MiBenchmark bench = benchmarks[i];
    const std::string name = to_string(bench);
    const auto start = std::chrono::steady_clock::now();
    const Workload workload = make_benchmark(bench, scale_divisor);
    std::vector<SystemResult> results = evaluator.evaluate_all(workload);
    wall_ns[i] = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    FTSPM_CHECK(results.size() == 3, "expected three structures");
    slots[i] = SuiteRow{bench, name, std::move(results[0]),
                        std::move(results[1]), std::move(results[2])};
    if (progress) {
      const std::lock_guard<std::mutex> lock(progress_mutex);
      progress(++completed, benchmarks.size(), name);
    }
  });

  std::vector<SuiteRow> rows;
  rows.reserve(slots.size());
  for (std::optional<SuiteRow>& slot : slots) rows.push_back(std::move(*slot));

  // Deterministic post-join observability, mirroring the serial path:
  // wall timers per benchmark and suite spans on a cumulative
  // simulated-cycle axis, both in benchmark order.
  if (obs != nullptr) {
    for (std::size_t i = 0; i < rows.size(); ++i)
      obs->registry.timer("suite." + rows[i].name).record_ns(wall_ns[i]);
    obs::TraceEventSink* trace = obs->trace;
    const obs::TraceEventSink::LaneId lane =
        trace != nullptr ? trace->lane("suite", "benchmarks") : 0;
    obs::EventLog* events = obs->events;
    std::uint64_t cumulative_cycles = 0;
    for (const SuiteRow& row : rows) {
      if (events != nullptr)
        events->emit("phase_start", cumulative_cycles,
                     {obs::TraceArg::str("kind", "suite"),
                      obs::TraceArg::str("benchmark", row.name)});
      if (trace != nullptr)
        trace->complete(lane, row.name, cumulative_cycles,
                        row.ftspm.run.total_cycles,
                        {obs::TraceArg::num("cycles",
                                            row.ftspm.run.total_cycles)});
      if (events != nullptr)
        events->emit("phase_end",
                     cumulative_cycles + row.ftspm.run.total_cycles,
                     {obs::TraceArg::str("kind", "suite"),
                      obs::TraceArg::str("benchmark", row.name),
                      obs::TraceArg::num("cycles",
                                         row.ftspm.run.total_cycles)});
      cumulative_cycles += row.ftspm.run.total_cycles;
    }
  }
  return rows;
}

double geomean_ratio(const std::vector<SuiteRow>& rows,
                     double (*ratio)(const SuiteRow&)) {
  FTSPM_REQUIRE(ratio != nullptr, "ratio function required");
  double log_sum = 0.0;
  std::size_t n = 0;
  for (const SuiteRow& row : rows) {
    const double r = ratio(row);
    if (!(r > 0.0) || !std::isfinite(r)) continue;
    log_sum += std::log(r);
    ++n;
  }
  return n ? std::exp(log_sum / static_cast<double>(n)) : 0.0;
}

}  // namespace ftspm
