#include "ftspm/report/suite_runner.h"

#include <cmath>
#include <mutex>
#include <optional>
#include <utility>

#include "ftspm/exec/thread_pool.h"
#include "ftspm/obs/context.h"
#include "ftspm/obs/timer.h"
#include "ftspm/util/error.h"

namespace ftspm {

namespace {

/// One benchmark's telemetry, booked apart from the caller's context
/// and folded into it afterwards (SuiteFold).
struct BenchmarkTelemetry {
  obs::Context context;
  obs::TraceEventSink trace;
};

/// Generates and evaluates one benchmark. With `caller` set, its
/// evaluations book into `telemetry`: a registry, and a trace sink when
/// `caller` traces. Evaluations emit no event log records.
SuiteRow run_benchmark(const StructureEvaluator& evaluator, MiBenchmark bench,
                       std::uint64_t scale_divisor, const obs::Context* caller,
                       BenchmarkTelemetry& telemetry) {
  const std::string name = to_string(bench);
  obs::Context* obs = nullptr;
  if (caller != nullptr) {
    obs = &telemetry.context;
    if (caller->trace != nullptr) obs->trace = &telemetry.trace;
  }
  std::vector<SystemResult> results;
  {
    const obs::ScopedTimer timer(obs != nullptr ? &obs->registry : nullptr,
                                 "suite." + name);
    const Workload workload = make_benchmark(bench, scale_divisor);
    results = evaluator.evaluate_all(workload, obs);
  }
  FTSPM_CHECK(results.size() == 3, "expected three structures");
  return SuiteRow{bench, name, std::move(results[0]), std::move(results[1]),
                  std::move(results[2])};
}

/// Folds each benchmark's telemetry into the caller's context, in
/// benchmark order: its registry merged, its trace appended, then its
/// span on the "suite" lane and its phase records, on a cumulative
/// simulated-cycle axis (deterministic, unlike wall time).
class SuiteFold {
 public:
  /// Registers the "suite" lane first, before any benchmark's lanes.
  explicit SuiteFold(obs::Context* obs)
      : obs_(obs),
        lane_(obs != nullptr && obs->trace != nullptr
                  ? obs->trace->lane("suite", "benchmarks")
                  : 0) {}

  void fold(const SuiteRow& row, const BenchmarkTelemetry& t) {
    if (obs_ == nullptr) return;
    const std::uint64_t cycles = row.ftspm.run.total_cycles;
    obs_->registry.merge_from(t.context.registry);
    if (obs_->events != nullptr)
      obs_->events->emit("phase_start", cumulative_cycles_,
                         {obs::TraceArg::str("kind", "suite"),
                          obs::TraceArg::str("benchmark", row.name)});
    if (obs_->trace != nullptr) {
      obs_->trace->append(t.trace);
      obs_->trace->complete(lane_, row.name, cumulative_cycles_, cycles,
                            {obs::TraceArg::num("cycles", cycles)});
    }
    if (obs_->events != nullptr)
      obs_->events->emit("phase_end", cumulative_cycles_ + cycles,
                         {obs::TraceArg::str("kind", "suite"),
                          obs::TraceArg::str("benchmark", row.name),
                          obs::TraceArg::num("cycles", cycles)});
    cumulative_cycles_ += cycles;
  }

 private:
  obs::Context* obs_;
  obs::TraceEventSink::LaneId lane_;
  std::uint64_t cumulative_cycles_ = 0;
};

}  // namespace

std::vector<SuiteRow> run_suite(const StructureEvaluator& evaluator,
                                std::uint64_t scale_divisor,
                                const SuiteProgress& progress,
                                obs::Context* obs) {
  SuiteFold fold(obs);
  std::vector<SuiteRow> rows;
  rows.reserve(kMiBenchmarkCount);
  for (MiBenchmark bench : all_benchmarks()) {
    BenchmarkTelemetry telemetry;
    rows.push_back(
        run_benchmark(evaluator, bench, scale_divisor, obs, telemetry));
    fold.fold(rows.back(), telemetry);
    if (progress) progress(rows.size(), kMiBenchmarkCount, rows.back().name);
  }
  return rows;
}

std::vector<SuiteRow> run_suite_parallel(const StructureEvaluator& evaluator,
                                         std::uint64_t scale_divisor,
                                         std::uint32_t jobs,
                                         const SuiteProgress& progress,
                                         obs::Context* obs) {
  if (jobs <= 1) return run_suite(evaluator, scale_divisor, progress, obs);

  const std::vector<MiBenchmark>& benchmarks = all_benchmarks();
  SuiteFold fold(obs);
  std::vector<std::optional<SuiteRow>> slots(benchmarks.size());
  std::vector<BenchmarkTelemetry> telemetry(benchmarks.size());
  std::mutex progress_mutex;
  std::size_t completed = 0;

  exec::ThreadPool pool(jobs);
  parallel_for(pool, benchmarks.size(), [&](std::size_t i) {
    slots[i] = run_benchmark(evaluator, benchmarks[i], scale_divisor, obs,
                             telemetry[i]);
    if (progress) {
      const std::lock_guard<std::mutex> lock(progress_mutex);
      progress(++completed, benchmarks.size(), slots[i]->name);
    }
  });

  std::vector<SuiteRow> rows;
  rows.reserve(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    rows.push_back(std::move(*slots[i]));
    fold.fold(rows.back(), telemetry[i]);
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
