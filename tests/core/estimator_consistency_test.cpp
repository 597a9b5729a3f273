// Cross-validation: the analytic ScenarioEstimator against the real
// simulator. MDA's threshold decisions are only as good as the
// estimator, so on scenarios without cache traffic (every block mapped,
// regions uncontended) its cycle count must match the simulator up to
// DMA constants, and on contended regions it must track the simulator's
// thrash within a factor.
#include <gtest/gtest.h>

#include "ftspm/core/scenario_estimator.h"
#include "ftspm/core/spm_config.h"
#include "ftspm/core/systems.h"
#include "ftspm/sim/simulator.h"
#include "ftspm/util/rng.h"
#include "ftspm/workload/suite.h"
#include "ftspm/workload/trace_builder.h"

namespace ftspm {
namespace {

const TechnologyLibrary& lib() {
  static const TechnologyLibrary kLib;
  return kLib;
}

TEST(EstimatorConsistencyTest, ExactOnUncontendedFullyMappedScenarios) {
  // One code + two data blocks that all fit their regions: the
  // estimator's cycle model and the simulator differ only by the
  // one-time DMA loads.
  const Program program("p", {Block{"fn", BlockKind::Code, 1024},
                              Block{"a", BlockKind::Data, 1024},
                              Block{"b", BlockKind::Data, 1024}});
  TraceBuilder b(program);
  b.call(0, 32);
  for (int i = 0; i < 50; ++i) {
    b.fetch(100, 1);
    b.read(1, 64, 0);
    b.write(2, 32, 0);
  }
  b.ret();
  Trace trace = b.take();
  const Workload w{program, std::move(trace)};
  const ProgramProfile prof = profile_workload(w);

  const SpmLayout layout = make_ftspm_layout(lib());
  const SimConfig sim_cfg = make_sim_config(lib());
  const std::vector<RegionId> map{*layout.find("I-SPM"),
                                  *layout.find("D-STT"),
                                  *layout.find("D-ECC")};

  const ScenarioEstimator est(layout, sim_cfg, w.program, prof);
  const double estimated = est.estimate(map).cycles;
  const Simulator sim(layout, sim_cfg);
  const RunResult run = sim.run(w, map);
  const double simulated_minus_dma =
      static_cast<double>(run.total_cycles - run.dma_cycles);
  EXPECT_NEAR(estimated, simulated_minus_dma, 1.0);

  // Energy: per-access model identical; the simulator adds DMA energy.
  const double est_energy = est.estimate(map).dynamic_energy_pj;
  double sim_demand_energy = 0.0;
  for (const RegionRunStats& s : run.regions)
    sim_demand_energy += s.energy_pj();
  EXPECT_NEAR(est_energy, sim_demand_energy, 1e-6);
}

TEST(EstimatorConsistencyTest, TracksSimulatorAcrossTheSuite) {
  // For MDA's own chosen plans, estimator cycles must stay within a
  // reasonable band of the simulator (cache-path approximations and
  // DMA constants are the slack).
  const StructureEvaluator evaluator;
  for (MiBenchmark bench :
       {MiBenchmark::Sha, MiBenchmark::Crc32, MiBenchmark::Dijkstra,
        MiBenchmark::StringSearch}) {
    const Workload w = make_benchmark(bench, 8);
    const ProgramProfile prof = profile_workload(w);
    const SystemResult r = evaluator.evaluate_ftspm(w, prof);
    const ScenarioEstimator est(evaluator.ftspm_layout(),
                                evaluator.sim_config(), w.program, prof);
    const double estimated = est.estimate(r.plan.block_to_region()).cycles;
    const double simulated = static_cast<double>(r.run.total_cycles);
    EXPECT_GT(estimated, 0.5 * simulated) << to_string(bench);
    EXPECT_LT(estimated, 2.0 * simulated) << to_string(bench);
  }
}

TEST(EstimatorConsistencyTest, ThrashTermTracksSimulatedDma) {
  // Force a contended region and compare the estimator's LRU-replay
  // fault words with the simulator's DMA-in words: same policy, same
  // sequence, so they must agree to within the first-touch loads.
  const Program program("p", {Block{"fn", BlockKind::Code, 512},
                              Block{"a", BlockKind::Data, 1536},
                              Block{"b", BlockKind::Data, 1536}});
  TraceBuilder b(program);
  b.call(0, 32);
  Rng rng(7);
  for (int i = 0; i < 60; ++i) {
    b.fetch(20);
    b.read(1, 16, static_cast<std::uint32_t>(rng.next_below(192)));
    b.fetch(20);
    b.read(2, 16, static_cast<std::uint32_t>(rng.next_below(192)));
  }
  b.ret();
  Trace trace = b.take();
  const Workload w{program, std::move(trace)};
  const ProgramProfile prof = profile_workload(w);

  // Both 1.5 KiB blocks share the 2 KiB SEC-DED region: alternating
  // reads evict each other every time.
  const SpmLayout layout = make_ftspm_layout(lib());
  const std::vector<RegionId> map{*layout.find("I-SPM"),
                                  *layout.find("D-ECC"),
                                  *layout.find("D-ECC")};
  const Simulator sim(layout, make_sim_config(lib()));
  const RunResult run = sim.run(w, map);
  const std::uint64_t sim_dma_in =
      run.regions[*layout.find("D-ECC")].dma_in_words;
  // 120 alternations x 192 words.
  EXPECT_EQ(sim_dma_in, 120u * 192u);

  const ScenarioEstimator est(layout, make_sim_config(lib()), w.program,
                              prof);
  const ScenarioEstimate contended = est.estimate(map);
  const ScenarioEstimate ideal = est.matched_ideal(map);
  // The thrash surcharge implied by the estimate covers the simulated
  // DMA word count (x dirty factor, x per-word cycles >= 2).
  EXPECT_GT(contended.cycles - ideal.cycles,
            static_cast<double>(sim_dma_in));
}

}  // namespace
}  // namespace ftspm
