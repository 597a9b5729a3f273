// Evaluation driver: runs the MiBench-style suite against the three
// structures — the inner loop behind Figs. 4-8. Shared by the bench
// binaries and the examples so every artefact reports the same numbers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ftspm/core/systems.h"
#include "ftspm/workload/suite.h"

namespace ftspm {

/// All three structures' results for one benchmark.
struct SuiteRow {
  MiBenchmark benchmark{};
  std::string name;
  SystemResult ftspm;
  SystemResult pure_sram;
  SystemResult pure_stt;
};

/// Invoked after each benchmark completes with (benchmarks_done,
/// benchmarks_total, name_of_the_one_just_finished). Reporting only;
/// results are unaffected.
using SuiteProgress =
    std::function<void(std::size_t, std::size_t, const std::string&)>;

/// Runs every benchmark at the given scale. Deterministic. With `obs`
/// set, each benchmark's evaluations book into a context of its own (a
/// registry, and a trace sink when `obs` has one), folded into `obs`
/// after the benchmark: its registry merged, its trace appended, then a
/// span on the "suite" lane and phase records in the event log,
/// timestamped by cumulative simulated FTSPM cycles. Each benchmark
/// also gets a wall-clock timer ("suite.<name>").
std::vector<SuiteRow> run_suite(const StructureEvaluator& evaluator,
                                std::uint64_t scale_divisor = 1,
                                const SuiteProgress& progress = {},
                                obs::Context* obs = nullptr);

/// run_suite fanned across a ftspm/exec worker pool: each benchmark is
/// one independent task, results are collected in benchmark order, and
/// the returned rows are identical to the serial function's for any
/// jobs value. `jobs <= 1` falls through to run_suite. The progress
/// callback fires (serialized) in *completion* order — that is the
/// only observable difference. Each task books into a context of its
/// own, as run_suite's benchmarks do, and the contexts are folded into
/// `obs` after the join in benchmark order, so the metrics, trace and
/// event log match the serial run's byte for byte at any jobs value.
std::vector<SuiteRow> run_suite_parallel(const StructureEvaluator& evaluator,
                                         std::uint64_t scale_divisor,
                                         std::uint32_t jobs,
                                         const SuiteProgress& progress = {},
                                         obs::Context* obs = nullptr);

/// Geometric mean of per-row ratios f(row); rows where the ratio is
/// non-positive or non-finite are skipped.
double geomean_ratio(const std::vector<SuiteRow>& rows,
                     double (*ratio)(const SuiteRow&));

}  // namespace ftspm
