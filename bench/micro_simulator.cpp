// Simulator and profiler throughput microbenchmarks (google-benchmark):
// how fast the substrate chews through trace events and word accesses —
// the practical limit on evaluation scale. Three shapes, each at scale 4:
// sha keeps every block SPM-resident under FTSPM (no cache traffic), fft
// sends millions of words of long runs through the cache path, and
// dijkstra is event-heavy (short runs, many call markers). The pure
// STT-RAM structure maps data blocks into endurance-limited regions, so
// its runs take the per-word wear path on every SPM write.
#include <benchmark/benchmark.h>

#include "bench_io.h"

#include "ftspm/core/baseline_mapper.h"
#include "ftspm/core/systems.h"
#include "ftspm/profile/profiler.h"
#include "ftspm/workload/suite.h"

namespace {

using namespace ftspm;

const Workload& workload(MiBenchmark bench) {
  static const Workload sha = make_benchmark(MiBenchmark::Sha, 4);
  static const Workload fft = make_benchmark(MiBenchmark::Fft, 4);
  static const Workload dijkstra = make_benchmark(MiBenchmark::Dijkstra, 4);
  switch (bench) {
    case MiBenchmark::Fft: return fft;
    case MiBenchmark::Dijkstra: return dijkstra;
    default: return sha;
  }
}

void set_items(benchmark::State& state, const Workload& w) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.total_accesses()));
}

void BM_ProfileWorkload(benchmark::State& state, MiBenchmark bench) {
  const Workload& w = workload(bench);
  for (auto _ : state) benchmark::DoNotOptimize(profile_workload(w));
  set_items(state, w);
}
BENCHMARK_CAPTURE(BM_ProfileWorkload, sha, MiBenchmark::Sha);
BENCHMARK_CAPTURE(BM_ProfileWorkload, fft, MiBenchmark::Fft);
BENCHMARK_CAPTURE(BM_ProfileWorkload, dijkstra, MiBenchmark::Dijkstra);

void BM_SimulateFtspm(benchmark::State& state, MiBenchmark bench) {
  const Workload& w = workload(bench);
  const StructureEvaluator evaluator;
  const ProgramProfile prof = profile_workload(w);
  const MappingDeterminer mda(evaluator.ftspm_layout(),
                              evaluator.sim_config());
  const MappingPlan plan = mda.determine(w.program, prof);
  const Simulator sim(evaluator.ftspm_layout(), evaluator.sim_config());
  for (auto _ : state)
    benchmark::DoNotOptimize(sim.run(w, plan.block_to_region()));
  set_items(state, w);
}
BENCHMARK_CAPTURE(BM_SimulateFtspm, sha, MiBenchmark::Sha);
BENCHMARK_CAPTURE(BM_SimulateFtspm, fft, MiBenchmark::Fft);
BENCHMARK_CAPTURE(BM_SimulateFtspm, dijkstra, MiBenchmark::Dijkstra);

void BM_SimulatePureStt(benchmark::State& state, MiBenchmark bench) {
  const Workload& w = workload(bench);
  const StructureEvaluator evaluator;
  const MappingPlan plan = determine_baseline_mapping(
      evaluator.pure_stt_layout(), w.program, profile_workload(w));
  const Simulator sim(evaluator.pure_stt_layout(), evaluator.sim_config());
  for (auto _ : state)
    benchmark::DoNotOptimize(sim.run(w, plan.block_to_region()));
  set_items(state, w);
}
BENCHMARK_CAPTURE(BM_SimulatePureStt, fft, MiBenchmark::Fft);
BENCHMARK_CAPTURE(BM_SimulatePureStt, dijkstra, MiBenchmark::Dijkstra);

void BM_MdaDetermine(benchmark::State& state) {
  const Workload& w = workload(MiBenchmark::Sha);
  const StructureEvaluator evaluator;
  const ProgramProfile prof = profile_workload(w);
  const MappingDeterminer mda(evaluator.ftspm_layout(),
                              evaluator.sim_config());
  for (auto _ : state)
    benchmark::DoNotOptimize(mda.determine(w.program, prof));
}
BENCHMARK(BM_MdaDetermine);

// Trace generation. dijkstra and qsort at scale 1 build the largest
// traces of the paper pipeline (698k and 680k events), where the trace
// chunks' allocation and page faults show; sha at scale 4 is small.
void BM_GenerateSuiteWorkload(benchmark::State& state, MiBenchmark bench,
                              std::uint64_t scale) {
  std::size_t events = 0;
  for (auto _ : state) {
    const Workload w = make_benchmark(bench, scale);
    events = w.trace.size();
    benchmark::DoNotOptimize(w.trace.back());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK_CAPTURE(BM_GenerateSuiteWorkload, sha_scale4, MiBenchmark::Sha, 4);
BENCHMARK_CAPTURE(BM_GenerateSuiteWorkload, dijkstra_scale1,
                  MiBenchmark::Dijkstra, 1);
BENCHMARK_CAPTURE(BM_GenerateSuiteWorkload, qsort_scale1, MiBenchmark::Qsort,
                  1);

}  // namespace

int main(int argc, char** argv) {
  return ftspm::bench::run_google_benchmark(argc, argv);
}
