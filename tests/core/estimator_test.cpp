#include "ftspm/core/scenario_estimator.h"

#include <gtest/gtest.h>

#include "ftspm/core/spm_config.h"
#include "ftspm/util/error.h"
#include "ftspm/workload/trace_builder.h"

namespace ftspm {
namespace {

const TechnologyLibrary& lib() {
  static const TechnologyLibrary kLib;
  return kLib;
}

struct Fixture {
  SpmLayout layout = make_ftspm_layout(lib());
  SimConfig sim = make_sim_config(lib());
  Program program{"demo",
                  {Block{"fn", BlockKind::Code, 1024},
                   Block{"a", BlockKind::Data, 1024},
                   Block{"b", BlockKind::Data, 1024}}};
};

ProgramProfile profile_of(const Fixture& f,
                          const Trace& trace) {
  return profile_workload(Workload{f.program, trace});
}

TEST(ScenarioEstimatorTest, IdealPricesEveryAccessAtOneCycle) {
  Fixture f;
  const ProgramProfile prof =
      profile_of(f, {TraceEvent{0, AccessType::Fetch, 0, 0, 100},
                     TraceEvent{1, AccessType::Read, 1, 0, 50}});
  const ScenarioEstimator est(f.layout, f.sim, f.program, prof);
  // 150 accesses + 50 gap cycles.
  EXPECT_DOUBLE_EQ(est.ideal().cycles, 200.0);
  EXPECT_DOUBLE_EQ(est.ideal().dynamic_energy_pj,
                   150.0 * f.sim.cache_access_energy_pj);
}

TEST(ScenarioEstimatorTest, SttWritesCarryTheirLatency) {
  Fixture f;
  const ProgramProfile prof =
      profile_of(f, {TraceEvent{1, AccessType::Write, 0, 0, 100}});
  const ScenarioEstimator est(f.layout, f.sim, f.program, prof);
  const RegionId d_stt = *f.layout.find("D-STT");
  const std::vector<RegionId> map{kNoRegion, d_stt, kNoRegion};
  const ScenarioEstimate s = est.estimate(map);
  const TechnologyParams& stt = f.layout.region(d_stt).tech;
  EXPECT_DOUBLE_EQ(s.cycles, 100.0 * stt.write_latency_cycles);
  EXPECT_DOUBLE_EQ(s.dynamic_energy_pj, 100.0 * stt.write_energy_pj);
  // Overhead vs the matched ideal (1 cycle per access).
  EXPECT_NEAR(est.performance_overhead(map),
              static_cast<double>(stt.write_latency_cycles) - 1.0, 1e-9);
}

TEST(ScenarioEstimatorTest, UnmappedBlocksPriceTheCachePath) {
  Fixture f;
  const ProgramProfile prof =
      profile_of(f, {TraceEvent{1, AccessType::Read, 0, 0, 1000}});
  EstimatorConfig ecfg;
  ecfg.cache_hit_rate = 0.9;
  const ScenarioEstimator est(f.layout, f.sim, f.program, prof, ecfg);
  const std::vector<RegionId> unmapped{kNoRegion, kNoRegion, kNoRegion};
  const ScenarioEstimate s = est.estimate(unmapped);
  const double expected_cycles =
      1000.0 * (f.sim.dcache.hit_latency_cycles +
                0.1 * f.sim.dram.line_latency_cycles);
  EXPECT_DOUBLE_EQ(s.cycles, expected_cycles);
  // Matched ideal prices the unmapped block identically: no overhead.
  EXPECT_NEAR(est.performance_overhead(unmapped), 0.0, 1e-12);
  EXPECT_NEAR(est.energy_overhead(unmapped), 0.0, 1e-12);
}

TEST(ScenarioEstimatorTest, TimeSharingIsPricedByLruReplay) {
  Fixture f;
  // a and b (128 words each) alternate: both into the 2 KiB (256-word)
  // SEC-DED region they exactly fill together -> no faults beyond the
  // two initial loads. Shrink the region via custom dimensions so they
  // *cannot* coexist and every alternation faults.
  Trace trace;
  for (int i = 0; i < 10; ++i) {
    trace.push_back(TraceEvent{1, AccessType::Read, 0, 0, 4});
    trace.push_back(TraceEvent{2, AccessType::Read, 0, 0, 4});
  }
  const ProgramProfile prof = profile_of(f, trace);

  FtspmDimensions small;
  small.dspm_secded_bytes = 1024;  // holds exactly one of a/b
  const SpmLayout tight = make_ftspm_layout(lib(), small);
  const ScenarioEstimator est(tight, f.sim, f.program, prof);
  const RegionId ecc = *tight.find("D-ECC");
  const std::vector<RegionId> map{kNoRegion, ecc, ecc};

  const ScenarioEstimate shared = est.estimate(map);
  // 20 residency faults x 128 words each, times the dirty factor.
  const double fault_words = 20.0 * 128.0 * EstimatorConfig{}.thrash_dirty_factor;
  const TechnologyParams& sec = tight.region(ecc).tech;
  const double per_word = std::max<double>(f.sim.dram.word_latency_cycles,
                                           sec.write_latency_cycles);
  const double base_cycles = 80.0 * sec.read_latency_cycles;
  EXPECT_NEAR(shared.cycles, base_cycles + fault_words * per_word, 1e-6);
}

TEST(ScenarioEstimatorTest, NoThrashTermWhenRegionFits) {
  Fixture f;
  const ProgramProfile prof =
      profile_of(f, {TraceEvent{1, AccessType::Read, 0, 0, 100},
                     TraceEvent{2, AccessType::Read, 0, 0, 100}});
  const ScenarioEstimator est(f.layout, f.sim, f.program, prof);
  const RegionId d_stt = *f.layout.find("D-STT");
  const std::vector<RegionId> map{kNoRegion, d_stt, d_stt};
  const ScenarioEstimate s = est.estimate(map);
  const TechnologyParams& stt = f.layout.region(d_stt).tech;
  EXPECT_DOUBLE_EQ(s.cycles, 200.0 * stt.read_latency_cycles);
}

TEST(ScenarioEstimatorTest, RejectsMismatchedInputs) {
  Fixture f;
  const ProgramProfile prof =
      profile_of(f, {TraceEvent{1, AccessType::Read, 0, 0, 10}});
  const ScenarioEstimator est(f.layout, f.sim, f.program, prof);
  EXPECT_THROW(est.estimate(std::vector<RegionId>{0}), InvalidArgument);
  EstimatorConfig bad;
  bad.cache_hit_rate = 1.5;
  EXPECT_THROW(ScenarioEstimator(f.layout, f.sim, f.program, prof, bad),
               InvalidArgument);
}

}  // namespace
}  // namespace ftspm
