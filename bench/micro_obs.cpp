// Observability overhead microbenchmarks (google-benchmark): the cost
// of the registry instruments and the trace sink, and — the number the
// <2% regression budget hangs on — a full simulator run with no
// context, a metrics-only context, and a traced one.
#include <benchmark/benchmark.h>

#include "bench_io.h"

#include "ftspm/core/systems.h"
#include "ftspm/obs/context.h"
#include "ftspm/workload/suite.h"

namespace {

using namespace ftspm;

void BM_CounterLookup(benchmark::State& state) {
  obs::Registry reg;
  for (auto _ : state) reg.counter("bench.counter").add(1);
  benchmark::DoNotOptimize(reg.counter("bench.counter").value());
}
BENCHMARK(BM_CounterLookup);

void BM_CounterCachedHandle(benchmark::State& state) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("bench.cached");
  for (auto _ : state) {
    c.add(1);
    benchmark::ClobberMemory();  // a local registry's loop would fold away
  }
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_CounterCachedHandle);

void BM_HistogramObserve(benchmark::State& state) {
  obs::Registry reg;
  obs::Histogram& h =
      reg.histogram("bench.hist", {8.0, 16.0, 32.0, 64.0, 128.0, 256.0});
  double v = 1.0;
  for (auto _ : state) {
    h.observe(v);
    v = v < 512.0 ? v * 2.0 : 1.0;
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramObserve);

void BM_TraceInstant(benchmark::State& state) {
  obs::TraceEventSink sink;
  const auto lane = sink.lane("bench", "events");
  std::uint64_t ts = 0;
  for (auto _ : state) sink.instant(lane, "e", ts++);
  benchmark::DoNotOptimize(sink.event_count());
}
BENCHMARK(BM_TraceInstant);

const Workload& workload() {
  static const Workload w = make_benchmark(MiBenchmark::Sha, 4);
  return w;
}

struct SimFixture {
  StructureEvaluator evaluator;
  ProgramProfile prof = profile_workload(workload());
  MappingPlan plan = MappingDeterminer(evaluator.ftspm_layout(),
                                       evaluator.sim_config())
                         .determine(workload().program, prof);
  Simulator sim{evaluator.ftspm_layout(), evaluator.sim_config()};
};

SimFixture& fixture() {
  static SimFixture f;
  return f;
}

void BM_SimulateObsOff(benchmark::State& state) {
  SimFixture& f = fixture();
  for (auto _ : state)
    benchmark::DoNotOptimize(f.sim.run(workload(), f.plan.block_to_region()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              workload().total_accesses()));
}
BENCHMARK(BM_SimulateObsOff);

void BM_SimulateMetricsOnly(benchmark::State& state) {
  obs::Context ctx;
  SimFixture& f = fixture();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        f.sim.run(workload(), f.plan.block_to_region(), &ctx));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              workload().total_accesses()));
}
BENCHMARK(BM_SimulateMetricsOnly);

void BM_SimulateTraced(benchmark::State& state) {
  obs::Context ctx;
  SimFixture& f = fixture();
  for (auto _ : state) {
    state.PauseTiming();
    obs::TraceEventSink sink;  // fresh sink so the file can't grow unbounded
    ctx.trace = &sink;
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        f.sim.run(workload(), f.plan.block_to_region(), &ctx));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              workload().total_accesses()));
}
BENCHMARK(BM_SimulateTraced);

}  // namespace

int main(int argc, char** argv) {
  return ftspm::bench::run_google_benchmark(argc, argv);
}
