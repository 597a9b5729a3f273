#include "ftspm/core/system_campaign.h"

#include <gtest/gtest.h>

#include "ftspm/core/spm_config.h"
#include "ftspm/core/systems.h"
#include "ftspm/util/error.h"
#include "ftspm/workload/case_study.h"

namespace ftspm {
namespace {

struct Fixture {
  Workload workload = make_case_study(CaseStudyTargets{}.scaled_down(8));
  ProgramProfile profile = profile_workload(workload);
  StructureEvaluator evaluator;
  SystemResult ftspm = evaluator.evaluate_ftspm(workload, profile);
  SystemResult sram = evaluator.evaluate_pure_sram(workload, profile);
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

TEST(SystemCampaignTest, OneSurfacePerRegion) {
  const auto regions = make_injection_regions(
      fixture().evaluator.ftspm_layout(), fixture().ftspm.plan,
      fixture().workload.program, fixture().profile);
  ASSERT_EQ(regions.size(), fixture().evaluator.ftspm_layout().region_count());
  for (const InjectionRegion& r : regions) {
    EXPECT_GE(r.ace_occupancy, 0.0);
    EXPECT_LE(r.ace_occupancy, 1.0);
    EXPECT_EQ(r.interleave, 1u);
  }
}

TEST(SystemCampaignTest, SttRegionsAreImmuneSurfaces) {
  const SpmLayout& layout = fixture().evaluator.ftspm_layout();
  const auto regions = make_injection_regions(
      layout, fixture().ftspm.plan, fixture().workload.program,
      fixture().profile);
  EXPECT_EQ(regions[*layout.find("I-SPM")].protection,
            ProtectionKind::Immune);
  EXPECT_EQ(regions[*layout.find("D-ECC")].protection,
            ProtectionKind::SecDed);
  EXPECT_EQ(regions[*layout.find("D-Parity")].protection,
            ProtectionKind::Parity);
}

TEST(SystemCampaignTest, TimeSharedRegionOccupancyIsCapped) {
  // Array1 + Array3 over-commit the 2 KiB SEC-DED region; the surface
  // occupancy must still be a probability.
  const SpmLayout& layout = fixture().evaluator.ftspm_layout();
  const auto regions = make_injection_regions(
      layout, fixture().ftspm.plan, fixture().workload.program,
      fixture().profile);
  const double ecc = regions[*layout.find("D-ECC")].ace_occupancy;
  EXPECT_GT(ecc, 0.3);  // heavily used
  EXPECT_LE(ecc, 1.0);
}

TEST(SystemCampaignTest, McAgreesWithAnalyticAvfForFtspm) {
  CampaignConfig cfg;
  cfg.strikes = 400'000;
  const CampaignResult mc = run_campaign(
      make_injection_regions(fixture().evaluator.ftspm_layout(),
                             fixture().ftspm.plan, fixture().workload.program,
                             fixture().profile),
      fixture().evaluator.strike_model(), cfg);
  const double analytic = fixture().ftspm.avf.vulnerability();
  // MC sits at or slightly below the analytic value (codeword-straddle
  // effects); both must be the same order of magnitude.
  EXPECT_LE(mc.vulnerability(), analytic * 1.10 + 0.002);
  EXPECT_GE(mc.vulnerability(), analytic * 0.55);
}

TEST(SystemCampaignTest, McAgreesWithAnalyticAvfForBaseline) {
  CampaignConfig cfg;
  cfg.strikes = 400'000;
  const CampaignResult mc = run_campaign(
      make_injection_regions(fixture().evaluator.pure_sram_layout(),
                             fixture().sram.plan, fixture().workload.program,
                             fixture().profile),
      fixture().evaluator.strike_model(), cfg);
  const double analytic = fixture().sram.avf.vulnerability();
  EXPECT_LE(mc.vulnerability(), analytic * 1.10 + 0.002);
  EXPECT_GE(mc.vulnerability(), analytic * 0.75);
}

TEST(SystemCampaignTest, McPreservesTheStructureOrdering) {
  CampaignConfig cfg;
  cfg.strikes = 200'000;
  const CampaignResult ft = run_campaign(
      make_injection_regions(fixture().evaluator.ftspm_layout(),
                             fixture().ftspm.plan, fixture().workload.program,
                             fixture().profile),
      fixture().evaluator.strike_model(), cfg);
  const CampaignResult sram = run_campaign(
      make_injection_regions(fixture().evaluator.pure_sram_layout(),
                             fixture().sram.plan, fixture().workload.program,
                             fixture().profile),
      fixture().evaluator.strike_model(), cfg);
  EXPECT_LT(ft.vulnerability(), 0.5 * sram.vulnerability());
}

TEST(SystemCampaignTest, RejectsMismatchedInputs) {
  const Fixture& f = fixture();
  EXPECT_THROW(
      make_injection_regions(f.evaluator.ftspm_layout(), f.ftspm.plan,
                             f.workload.program, ProgramProfile{}),
      InvalidArgument);
}

}  // namespace
}  // namespace ftspm

namespace ftspm {
namespace {

TEST(TemporalCampaignTest, RunsAndStaysBelowTheStaticModel) {
  const Fixture& f = fixture();
  CampaignConfig cfg;
  cfg.strikes = 150'000;
  const CampaignResult temporal = run_temporal_campaign(
      f.evaluator.ftspm_layout(), f.ftspm.plan, f.workload.program,
      f.profile, f.evaluator.strike_model(), cfg);
  const CampaignResult fixed = run_campaign(
      make_injection_regions(f.evaluator.ftspm_layout(), f.ftspm.plan,
                             f.workload.program, f.profile),
      f.evaluator.strike_model(), cfg);
  // Fidelity ordering: temporal residency can only mask more strikes
  // than the static occupancy cap (a word is often simply empty).
  EXPECT_LE(temporal.vulnerability(), fixed.vulnerability() * 1.15 + 0.003);
  EXPECT_LE(temporal.vulnerability(), f.ftspm.avf.vulnerability() * 1.15 +
                                          0.003);
  EXPECT_EQ(temporal.masked + temporal.dre + temporal.due + temporal.sdc,
            temporal.strikes);
}

TEST(TemporalCampaignTest, DeterministicForFixedSeed) {
  const Fixture& f = fixture();
  CampaignConfig cfg;
  cfg.strikes = 30'000;
  const CampaignResult a = run_temporal_campaign(
      f.evaluator.ftspm_layout(), f.ftspm.plan, f.workload.program,
      f.profile, f.evaluator.strike_model(), cfg);
  const CampaignResult b = run_temporal_campaign(
      f.evaluator.ftspm_layout(), f.ftspm.plan, f.workload.program,
      f.profile, f.evaluator.strike_model(), cfg);
  EXPECT_EQ(a.sdc, b.sdc);
  EXPECT_EQ(a.due, b.due);
  EXPECT_EQ(a.masked, b.masked);
}

TEST(TemporalCampaignTest, UnmappedPlanMasksEverything) {
  const Fixture& f = fixture();
  std::vector<BlockMapping> unmapped(f.workload.program.block_count());
  for (std::size_t i = 0; i < unmapped.size(); ++i)
    unmapped[i] = BlockMapping{static_cast<BlockId>(i), kNoRegion,
                               MappingReason::NoSramRoom};
  const MappingPlan plan(f.evaluator.ftspm_layout(), std::move(unmapped));
  CampaignConfig cfg;
  cfg.strikes = 20'000;
  const CampaignResult r = run_temporal_campaign(
      f.evaluator.ftspm_layout(), plan, f.workload.program, f.profile,
      f.evaluator.strike_model(), cfg);
  EXPECT_EQ(r.masked, r.strikes);  // nothing is ever resident
}

TEST(TemporalCampaignTest, PreservesTheStructureGap) {
  const Fixture& f = fixture();
  CampaignConfig cfg;
  cfg.strikes = 100'000;
  const CampaignResult ft = run_temporal_campaign(
      f.evaluator.ftspm_layout(), f.ftspm.plan, f.workload.program,
      f.profile, f.evaluator.strike_model(), cfg);
  const CampaignResult sram = run_temporal_campaign(
      f.evaluator.pure_sram_layout(), f.sram.plan, f.workload.program,
      f.profile, f.evaluator.strike_model(), cfg);
  EXPECT_LT(ft.vulnerability(), 0.6 * sram.vulnerability());
}

}  // namespace
}  // namespace ftspm
