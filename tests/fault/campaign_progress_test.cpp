// Regression tests for the campaign progress contract: invoked every
// progress_interval strikes plus once at completion — and exactly once
// at completion even when the total is an exact multiple of the
// interval (the historical double-fire shape). Every campaign kind's
// serial entry point (static, recovery with scrub, temporal) honours
// the same contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "ftspm/core/system_campaign.h"
#include "ftspm/core/systems.h"
#include "ftspm/exec/parallel_campaign.h"
#include "ftspm/fault/injector.h"
#include "ftspm/fault/strike_model.h"
#include "ftspm/mem/technology_library.h"
#include "ftspm/workload/case_study.h"

namespace ftspm {
namespace {

using Calls = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

struct TemporalFixture {
  Workload workload = make_case_study(CaseStudyTargets{}.scaled_down(8));
  ProgramProfile profile = profile_workload(workload);
  StructureEvaluator evaluator;
  SystemResult system = evaluator.evaluate_ftspm(workload, profile);
};

const TemporalFixture& temporal_fixture() {
  static const TemporalFixture f;
  return f;
}

/// The progress calls of a serial static campaign. The serial recovery
/// (with scrub) and temporal campaigns run with the same config and
/// must make exactly the same calls.
Calls run_with_progress(std::uint64_t strikes, std::uint64_t interval) {
  Calls calls;
  CampaignConfig cfg;
  cfg.strikes = strikes;
  cfg.progress_interval = interval;
  cfg.progress = [&](std::uint64_t done, std::uint64_t total) {
    calls.emplace_back(done, total);
  };
  const std::vector<InjectionRegion> regions{
      InjectionRegion{RegionGeometry(512, 8), ProtectionKind::SecDed, 0.9,
                      1}};
  const StrikeMultiplicityModel model =
      StrikeMultiplicityModel::for_node(40.0);
  run_campaign(regions, model, cfg);
  const Calls static_calls = std::exchange(calls, {});

  RecoveryRegion live;
  live.inject = regions.front();
  live.tech = TechnologyLibrary().secded_sram();
  live.scrub = true;
  RecoveryPolicy policy;
  policy.recover = true;
  policy.scrub_interval = 16;
  run_recovery_campaign({live}, model, cfg, policy);
  EXPECT_EQ(std::exchange(calls, {}), static_calls) << "recovery";

  const TemporalFixture& f = temporal_fixture();
  run_temporal_campaign(f.evaluator.ftspm_layout(), f.system.plan,
                        f.workload.program, f.profile,
                        f.evaluator.strike_model(), cfg);
  EXPECT_EQ(calls, static_calls) << "temporal";
  return static_calls;
}

TEST(CampaignProgressTest, ExactMultipleFiresCompletionExactlyOnce) {
  // 100 strikes, interval 25: the final strike is both an interval
  // boundary and the completion — it must report once, not twice.
  const auto calls = run_with_progress(100, 25);
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> expected{
      {25, 100}, {50, 100}, {75, 100}, {100, 100}};
  EXPECT_EQ(calls, expected);
}

TEST(CampaignProgressTest, NonMultipleStillReportsCompletion) {
  const auto calls = run_with_progress(103, 25);
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> expected{
      {25, 103}, {50, 103}, {75, 103}, {100, 103}, {103, 103}};
  EXPECT_EQ(calls, expected);
}

TEST(CampaignProgressTest, IntervalLargerThanCampaignReportsOnlyCompletion) {
  const auto calls = run_with_progress(10, 1000);
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> expected{
      {10, 10}};
  EXPECT_EQ(calls, expected);
}

TEST(CampaignProgressTest, NoIntervalMeansNoCalls) {
  EXPECT_TRUE(run_with_progress(50, 0).empty());
}

TEST(CampaignProgressTest, ProgressNeverChangesResults) {
  CampaignConfig plain;
  plain.strikes = 5'000;
  const std::vector<InjectionRegion> regions{
      InjectionRegion{RegionGeometry(512, 8), ProtectionKind::SecDed, 0.9,
                      1}};
  const StrikeMultiplicityModel model =
      StrikeMultiplicityModel::for_node(40.0);
  const CampaignResult quiet = run_campaign(regions, model, plain);

  CampaignConfig noisy = plain;
  noisy.progress_interval = 7;
  noisy.progress = [](std::uint64_t, std::uint64_t) {};
  const CampaignResult loud = run_campaign(regions, model, noisy);
  EXPECT_EQ(quiet.masked, loud.masked);
  EXPECT_EQ(quiet.dre, loud.dre);
  EXPECT_EQ(quiet.due, loud.due);
  EXPECT_EQ(quiet.sdc, loud.sdc);
}

}  // namespace
}  // namespace ftspm
