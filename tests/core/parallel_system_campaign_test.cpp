// System-level determinism contract of the exec engine: the parallel
// campaign entry points must reproduce their serial counterparts for a
// one-shard plan and be jobs-invariant for any fixed shard count.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <unistd.h>
#include <vector>

#include <cstdio>
#include <cstdlib>

#include "ftspm/core/system_campaign.h"
#include "ftspm/core/systems.h"
#include "ftspm/fault/sensitivity.h"
#include "ftspm/workload/case_study.h"

namespace ftspm {
namespace {

struct Fixture {
  Workload workload = make_case_study(CaseStudyTargets{}.scaled_down(8));
  ProgramProfile profile = profile_workload(workload);
  StructureEvaluator evaluator;
  SystemResult ftspm = evaluator.evaluate_ftspm(workload, profile);
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

void expect_same(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.strikes, b.strikes);
  EXPECT_EQ(a.masked, b.masked);
  EXPECT_EQ(a.dre, b.dre);
  EXPECT_EQ(a.due, b.due);
  EXPECT_EQ(a.sdc, b.sdc);
}

TEST(ParallelSystemCampaignTest, OneShardMatchesSerial) {
  const Fixture& f = fixture();
  CampaignConfig cfg;
  cfg.strikes = 20'000;
  const std::vector<InjectionRegion> regions = make_injection_regions(
      f.evaluator.ftspm_layout(), f.ftspm.plan, f.workload.program,
      f.profile);
  const CampaignResult serial =
      run_campaign(regions, f.evaluator.strike_model(), cfg);
  exec::ExecConfig exec;
  exec.jobs = 2;
  exec.shards = 1;
  const exec::ShardedRun run = exec::run_campaign_sharded(
      regions, f.evaluator.strike_model(), cfg, exec);
  expect_same(run.merged, serial);
}

TEST(ParallelSystemCampaignTest, JobsInvariantForFixedShardCount) {
  const Fixture& f = fixture();
  CampaignConfig cfg;
  cfg.strikes = 20'000;
  exec::ExecConfig one;
  one.jobs = 1;
  one.shards = 4;
  exec::ExecConfig four;
  four.jobs = 4;
  four.shards = 4;
  const std::vector<InjectionRegion> regions = make_injection_regions(
      f.evaluator.ftspm_layout(), f.ftspm.plan, f.workload.program,
      f.profile);
  const exec::ShardedRun a = exec::run_campaign_sharded(
      regions, f.evaluator.strike_model(), cfg, one);
  const exec::ShardedRun b = exec::run_campaign_sharded(
      regions, f.evaluator.strike_model(), cfg, four);
  expect_same(a.merged, b.merged);
}

TEST(ParallelTemporalCampaignTest, OneShardMatchesSerial) {
  const Fixture& f = fixture();
  CampaignConfig cfg;
  cfg.strikes = 15'000;
  const CampaignResult serial = run_temporal_campaign(
      f.evaluator.ftspm_layout(), f.ftspm.plan, f.workload.program,
      f.profile, f.evaluator.strike_model(), cfg);
  exec::ExecConfig exec;
  exec.jobs = 2;
  exec.shards = 1;
  const exec::ShardedRun run = run_temporal_campaign_parallel(
      f.evaluator.ftspm_layout(), f.ftspm.plan, f.workload.program,
      f.profile, f.evaluator.strike_model(), cfg, exec);
  expect_same(run.merged, serial);
}

TEST(ParallelTemporalCampaignTest, JobsInvariantAndResumable) {
  const Fixture& f = fixture();
  CampaignConfig cfg;
  cfg.strikes = 15'000;
  exec::ExecConfig one;
  one.jobs = 1;
  one.shards = 3;
  exec::ExecConfig four;
  four.jobs = 4;
  four.shards = 3;
  const exec::ShardedRun a = run_temporal_campaign_parallel(
      f.evaluator.ftspm_layout(), f.ftspm.plan, f.workload.program,
      f.profile, f.evaluator.strike_model(), cfg, one);
  const exec::ShardedRun b = run_temporal_campaign_parallel(
      f.evaluator.ftspm_layout(), f.ftspm.plan, f.workload.program,
      f.profile, f.evaluator.strike_model(), cfg, four);
  expect_same(a.merged, b.merged);

  // Cancel + resume through the temporal kind as well (the salt and
  // kind tag must round-trip through the checkpoint).
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string path = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                           "/ftspm_temporal_resume." +
                           std::to_string(::getpid());
  std::atomic<bool> cancel{false};
  exec::ExecConfig halted = four;
  halted.checkpoint_path = path;
  halted.cancel = &cancel;
  CampaignConfig cancelling = cfg;
  cancelling.progress_interval = 1'000;
  cancelling.progress = [&](std::uint64_t done, std::uint64_t) {
    if (done >= 5'000) cancel.store(true, std::memory_order_relaxed);
  };
  const exec::ShardedRun partial = run_temporal_campaign_parallel(
      f.evaluator.ftspm_layout(), f.ftspm.plan, f.workload.program,
      f.profile, f.evaluator.strike_model(), cancelling, halted);
  EXPECT_FALSE(partial.complete);

  exec::ExecConfig resumed = four;
  resumed.resume_path = path;
  const exec::ShardedRun rest = run_temporal_campaign_parallel(
      f.evaluator.ftspm_layout(), f.ftspm.plan, f.workload.program,
      f.profile, f.evaluator.strike_model(), cfg, resumed);
  EXPECT_TRUE(rest.complete);
  expect_same(rest.merged, a.merged);
  std::remove(path.c_str());
}

TEST(ParallelTemporalCampaignTest, SensitivityGridIsJobsInvariant) {
  const Fixture& f = fixture();
  CampaignConfig cfg;
  cfg.strikes = 15'000;

  // Serial reference grid over the campaign's own surfaces.
  TemporalCampaign campaign(f.evaluator.ftspm_layout(), f.ftspm.plan,
                            f.workload.program, f.profile,
                            f.evaluator.strike_model());
  SensitivityGrid serial = make_sensitivity_grid(campaign.surfaces(), 24);
  CampaignShardState state =
      begin_campaign_shard(cfg.seed ^ TemporalCampaign::kSeedSalt);
  campaign.run_chunk(cfg, state, cfg.strikes, &serial);

  std::string first;
  for (std::uint32_t jobs : {1u, 4u}) {
    exec::ExecConfig exec;
    exec.jobs = jobs;
    exec.shards = 3;
    exec.sensitivity_buckets = 24;
    const exec::ShardedRun run = run_temporal_campaign_parallel(
        f.evaluator.ftspm_layout(), f.ftspm.plan, f.workload.program,
        f.profile, f.evaluator.strike_model(), cfg, exec);
    ASSERT_TRUE(run.sensitivity.active());
    expect_same(run.sensitivity.totals(), run.merged);
    if (first.empty())
      first = run.sensitivity.to_csv();
    else
      EXPECT_EQ(run.sensitivity.to_csv(), first);
  }

  // One-shard parallel grid equals the serial grid.
  exec::ExecConfig one;
  one.jobs = 2;
  one.shards = 1;
  one.sensitivity_buckets = 24;
  const exec::ShardedRun run = run_temporal_campaign_parallel(
      f.evaluator.ftspm_layout(), f.ftspm.plan, f.workload.program,
      f.profile, f.evaluator.strike_model(), cfg, one);
  EXPECT_EQ(run.sensitivity.to_csv(), serial.to_csv());
}

}  // namespace
}  // namespace ftspm
