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
/// set, every evaluation is handed it, and each benchmark also gets a
/// wall-clock timer in its registry ("suite.<name>"), phase records in
/// its event log and a span on its trace's "suite" lane, timestamped
/// by cumulative simulated FTSPM cycles.
std::vector<SuiteRow> run_suite(const StructureEvaluator& evaluator,
                                std::uint64_t scale_divisor = 1,
                                const SuiteProgress& progress = {},
                                obs::Context* obs = nullptr);

/// run_suite fanned across a ftspm/exec worker pool: each benchmark is
/// one independent task, results are collected in benchmark order, and
/// the returned rows are identical to the serial function's for any
/// jobs value. `jobs <= 1` falls through to run_suite. The progress
/// callback fires (serialized) in *completion* order — that is the
/// only observable difference. The workers' evaluations are handed no
/// context; with `obs` set, the per-benchmark timers, phase records and
/// trace spans are emitted after the join, in benchmark order, so the
/// suite lane matches the serial one byte for byte.
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
