#include "ftspm/exec/parallel_campaign.h"

#include <gtest/gtest.h>

#include "ftspm/exec/thread_pool.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include <fstream>
#include <sstream>

#include "ftspm/core/system_campaign.h"
#include "ftspm/core/systems.h"
#include "ftspm/fault/injector.h"
#include "ftspm/fault/strike_model.h"
#include "ftspm/mem/technology_library.h"
#include "ftspm/obs/context.h"
#include "ftspm/util/error.h"
#include "ftspm/util/json.h"
#include "ftspm/workload/case_study.h"

namespace ftspm::exec {
namespace {

std::string temp_path(const char* stem) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + stem + "." +
         std::to_string(::getpid());
}

/// A small mixed surface set: SEC-DED + parity, both seeing real
/// classification traffic so all four counters move.
std::vector<InjectionRegion> surfaces() {
  return {
      InjectionRegion{RegionGeometry(2048, 8), ProtectionKind::SecDed, 0.9,
                      1},
      InjectionRegion{RegionGeometry(1024, 1), ProtectionKind::Parity, 0.8,
                      1},
  };
}

StrikeMultiplicityModel model() {
  return StrikeMultiplicityModel::for_node(40.0);
}

void expect_same(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.strikes, b.strikes);
  EXPECT_EQ(a.masked, b.masked);
  EXPECT_EQ(a.dre, b.dre);
  EXPECT_EQ(a.due, b.due);
  EXPECT_EQ(a.sdc, b.sdc);
}

TEST(ParallelCampaignTest, OneShardReproducesTheSerialCampaign) {
  CampaignConfig cfg;
  cfg.strikes = 20'000;
  const CampaignResult serial = run_campaign(surfaces(), model(), cfg);

  for (std::uint32_t jobs : {1u, 2u}) {
    ExecConfig exec;
    exec.jobs = jobs;
    exec.shards = 1;
    const ShardedRun run = run_campaign_sharded(surfaces(), model(), cfg,
                                                exec);
    EXPECT_TRUE(run.complete);
    expect_same(run.merged, serial);
  }
}

/// What one campaign call leaves in the telemetry of the context it is
/// handed, a context with an event log and a trace.
struct Telemetry {
  std::string events;
  std::string trace;
  std::uint64_t strikes = 0;     ///< The campaign.strikes counter.
  std::uint64_t vulnerable = 0;  ///< The campaign.vulnerable counter.
};

template <typename Run>
Telemetry capture(Run&& run) {
  obs::EventLog events;
  obs::TraceEventSink trace;
  obs::Context ctx;
  ctx.events = &events;
  ctx.trace = &trace;
  run(&ctx);
  Telemetry t;
  t.events = events.str();
  t.trace = trace.str();
  t.strikes = ctx.registry.counter("campaign.strikes").value();
  t.vulnerable = ctx.registry.counter("campaign.vulnerable").value();
  return t;
}

/// A default (one-shard, inline) ExecConfig handing the run `obs`.
ExecConfig exec_with(obs::Context* obs) {
  ExecConfig exec;
  exec.obs = obs;
  return exec;
}

/// A serial entry point is a one-shard run of the campaign runner: its
/// result is the sharded call's with a default ExecConfig, and that
/// call books the runner's records and counters, which agree with it.
void expect_serial_is_one_shard(const char* kind, const Telemetry& sharded,
                                const CampaignResult& result) {
  SCOPED_TRACE(kind);
  EXPECT_NE(sharded.events.find("\"phase_start\""), std::string::npos);
  EXPECT_NE(sharded.trace.find("shard0"), std::string::npos);
  EXPECT_EQ(sharded.strikes, result.strikes);
  EXPECT_EQ(sharded.vulnerable, result.due + result.sdc);
}

TEST(ParallelCampaignTest, SerialEntryPointsAreOneShardRuns) {
  CampaignConfig cfg;
  cfg.strikes = 20'000;

  CampaignResult result = run_campaign(surfaces(), model(), cfg);
  const Telemetry sharded_static = capture([&](obs::Context* obs) {
    expect_same(
        run_campaign_sharded(surfaces(), model(), cfg, exec_with(obs)).merged,
        result);
  });
  expect_serial_is_one_shard("static", sharded_static, result);

  const TechnologyLibrary lib;
  RecoveryRegion live;
  live.inject = InjectionRegion{RegionGeometry(2048, 8),
                                ProtectionKind::SecDed, 0.3, 1};
  live.tech = lib.secded_sram();
  live.dirty_fraction = 0.25;
  live.scrub = true;
  RecoveryPolicy policy;
  policy.recover = true;
  policy.scrub_interval = 1'024;
  result = run_recovery_campaign({live}, model(), cfg, policy).strikes;
  const Telemetry sharded_recovery = capture([&](obs::Context* obs) {
    expect_same(run_recovery_campaign_sharded({live}, model(), cfg, policy,
                                              exec_with(obs))
                    .merged.strikes,
                result);
  });
  expect_serial_is_one_shard("recovery", sharded_recovery, result);

  const Workload w = make_case_study(CaseStudyTargets{}.scaled_down(8));
  const ProgramProfile profile = profile_workload(w);
  const StructureEvaluator evaluator;
  const SystemResult sys = evaluator.evaluate_ftspm(w, profile);
  result = run_temporal_campaign(evaluator.ftspm_layout(), sys.plan,
                                 w.program, profile, evaluator.strike_model(),
                                 cfg);
  const Telemetry sharded_temporal = capture([&](obs::Context* obs) {
    expect_same(run_temporal_campaign_parallel(
                    evaluator.ftspm_layout(), sys.plan, w.program, profile,
                    evaluator.strike_model(), cfg, exec_with(obs))
                    .merged,
                result);
  });
  expect_serial_is_one_shard("temporal", sharded_temporal, result);
}

TEST(ParallelCampaignTest, ResultsIdenticalAcrossJobCounts) {
  CampaignConfig cfg;
  cfg.strikes = 30'000;
  ExecConfig base;
  base.shards = 4;

  ExecConfig one = base, two = base, eight = base;
  one.jobs = 1;
  two.jobs = 2;
  eight.jobs = 8;
  const ShardedRun a = run_campaign_sharded(surfaces(), model(), cfg, one);
  const ShardedRun b = run_campaign_sharded(surfaces(), model(), cfg, two);
  const ShardedRun c = run_campaign_sharded(surfaces(), model(), cfg, eight);
  expect_same(a.merged, b.merged);
  expect_same(a.merged, c.merged);
  ASSERT_EQ(a.shard_results.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    expect_same(a.shard_results[i], b.shard_results[i]);
    expect_same(a.shard_results[i], c.shard_results[i]);
  }
  // The split must actually exercise every counter for this to mean
  // anything.
  EXPECT_GT(a.merged.masked, 0u);
  EXPECT_GT(a.merged.dre, 0u);
  EXPECT_GT(a.merged.due + a.merged.sdc, 0u);
}

TEST(ParallelCampaignTest, MergedEqualsIndependentPerShardRuns) {
  CampaignConfig cfg;
  cfg.strikes = 12'000;
  ExecConfig exec;
  exec.jobs = 2;
  exec.shards = 3;
  const ShardedRun run = run_campaign_sharded(surfaces(), model(), cfg, exec);

  // Each shard rerun alone through the plain serial entry point.
  std::vector<CampaignResult> lone;
  for (const CampaignShard& shard : make_shard_plan(cfg, 3))
    lone.push_back(run_campaign(surfaces(), model(), shard.config));
  ASSERT_EQ(run.shard_results.size(), lone.size());
  for (std::size_t i = 0; i < lone.size(); ++i)
    expect_same(run.shard_results[i], lone[i]);
  expect_same(run.merged, merge_shard_results(lone));
}

TEST(ParallelCampaignTest, ChunkSizeNeverChangesResults) {
  CampaignConfig cfg;
  cfg.strikes = 9'000;
  ExecConfig exec;
  exec.shards = 2;
  // Progress cuts end a chunk at every multiple of 577 strikes: many
  // chunks, none aligned to a batch block.
  CampaignConfig fine = cfg;
  fine.progress_interval = 577;
  fine.progress = [](std::uint64_t, std::uint64_t) {};
  const ShardedRun a = run_campaign_sharded(surfaces(), model(), cfg, exec);
  const ShardedRun b = run_campaign_sharded(surfaces(), model(), fine, exec);
  expect_same(a.merged, b.merged);
}

TEST(ParallelCampaignTest, HaltCheckpointResumeMatchesUninterrupted) {
  CampaignConfig cfg;
  cfg.strikes = 24'000;
  const std::string path = temp_path("ftspm_resume_test");

  // Reference: one uninterrupted sharded run.
  ExecConfig plain;
  plain.jobs = 2;
  plain.shards = 3;
  const ShardedRun whole = run_campaign_sharded(surfaces(), model(), cfg,
                                                plain);

  // Same campaign, cancelled partway once 7k strikes are done, then
  // resumed from the checkpoint it left behind.
  std::atomic<bool> cancel{false};
  ExecConfig first = plain;
  first.checkpoint_path = path;
  first.cancel = &cancel;
  CampaignConfig cancelling = cfg;
  cancelling.progress_interval = 1'000;
  cancelling.progress = [&](std::uint64_t done, std::uint64_t) {
    if (done >= 7'000) cancel.store(true, std::memory_order_relaxed);
  };
  const ShardedRun halted = run_campaign_sharded(surfaces(), model(),
                                                 cancelling, first);
  EXPECT_FALSE(halted.complete);
  EXPECT_LT(halted.merged.strikes, cfg.strikes);
  EXPECT_GT(halted.merged.strikes, 0u);

  ExecConfig second = plain;
  second.resume_path = path;
  const ShardedRun resumed = run_campaign_sharded(surfaces(), model(), cfg,
                                                  second);
  EXPECT_TRUE(resumed.complete);
  expect_same(resumed.merged, whole.merged);
  for (std::size_t i = 0; i < 3; ++i)
    expect_same(resumed.shard_results[i], whole.shard_results[i]);

  // The finished run rewrote the checkpoint; it must read back
  // complete and still validate.
  const CampaignCheckpoint final_cp = load_checkpoint(path);
  EXPECT_TRUE(final_cp.complete());
  EXPECT_NO_THROW(final_cp.validate_against(cfg, 3, 0, "static"));
  std::remove(path.c_str());
}

TEST(ParallelCampaignTest, EventLogCountsEachShardsCheckpointWrites) {
  // Progress cuts end every chunk at a multiple of 1,000 strikes, and
  // each chunk reaches the checkpoint interval: 5 writes per 5,000-strike
  // shard, the last at the shard's end.
  CampaignConfig cfg;
  cfg.strikes = 10'000;
  cfg.progress_interval = 1'000;
  cfg.progress = [](std::uint64_t, std::uint64_t) {};
  const std::string path = temp_path("ftspm_checkpoint_writes_test");
  obs::EventLog events;
  obs::Context ctx;
  ctx.events = &events;
  ExecConfig exec;
  exec.shards = 2;
  exec.checkpoint_path = path;
  exec.checkpoint_interval = 1'000;
  exec.obs = &ctx;
  EXPECT_TRUE(run_campaign_sharded(surfaces(), model(), cfg, exec).complete);
  std::remove(path.c_str());

  std::vector<std::uint64_t> shards;
  for (const JsonValue& record : parse_ndjson(events.str())) {
    if (record.at("event").string != "checkpoint") continue;
    shards.push_back(static_cast<std::uint64_t>(record.at("shard").number));
    EXPECT_DOUBLE_EQ(record.at("writes").number, 5.0);
  }
  EXPECT_EQ(shards, (std::vector<std::uint64_t>{0, 1}));
}

TEST(ParallelCampaignTest, ResumeUnderDifferentConfigIsRejected) {
  CampaignConfig cfg;
  cfg.strikes = 4'000;
  const std::string path = temp_path("ftspm_resume_reject_test");
  ExecConfig exec;
  exec.shards = 2;
  exec.checkpoint_path = path;
  run_campaign_sharded(surfaces(), model(), cfg, exec);

  ExecConfig resume;
  resume.shards = 4;  // was checkpointed with 2
  resume.resume_path = path;
  EXPECT_THROW(run_campaign_sharded(surfaces(), model(), cfg, resume), Error);

  CampaignConfig other = cfg;
  other.seed ^= 1;
  ExecConfig resume2;
  resume2.shards = 2;
  resume2.resume_path = path;
  EXPECT_THROW(run_campaign_sharded(surfaces(), model(), other, resume2),
               Error);
  std::remove(path.c_str());
}

TEST(ParallelCampaignTest, ResumeOfAnInflatedShardBudgetIsRejected) {
  // A checkpoint whose shard 0 claims 900 of a 1000-strike two-shard
  // campaign, with counters to match, is consistent in itself; resumed,
  // it would report 1,400 strikes. Each shard's budget must be its
  // share of the plan.
  CampaignConfig cfg;
  cfg.strikes = 1'000;
  const std::string path = temp_path("ftspm_resume_inflated_test");
  ExecConfig exec;
  exec.shards = 2;
  exec.checkpoint_path = path;
  run_campaign_sharded(surfaces(), model(), cfg, exec);

  CampaignCheckpoint cp = load_checkpoint(path);
  ASSERT_EQ(cp.shards.size(), 2u);
  ShardCheckpoint& shard = cp.shards[0];
  ASSERT_EQ(shard.strikes, 500u);
  shard.partial.dre += 900 - shard.done;
  shard.partial.strikes = 900;
  shard.strikes = 900;
  shard.done = 900;
  store_checkpoint(cp, path);

  ExecConfig resume;
  resume.shards = 2;
  resume.resume_path = path;
  EXPECT_THROW(run_campaign_sharded(surfaces(), model(), cfg, resume), Error);
  std::remove(path.c_str());
}

TEST(ParallelCampaignTest, ProgressIsMonotoneWithOneCompletionCall) {
  CampaignConfig cfg;
  cfg.strikes = 10'000;
  cfg.progress_interval = 1'000;
  std::mutex mutex;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> calls;
  cfg.progress = [&](std::uint64_t done, std::uint64_t total) {
    const std::lock_guard<std::mutex> lock(mutex);
    calls.emplace_back(done, total);
  };

  ExecConfig exec;
  exec.jobs = 4;
  exec.shards = 4;
  run_campaign_sharded(surfaces(), model(), cfg, exec);

  ASSERT_FALSE(calls.empty());
  int completions = 0;
  std::uint64_t last = 0;
  for (const auto& [done, total] : calls) {
    EXPECT_EQ(total, cfg.strikes);
    EXPECT_GE(done, last);
    last = done;
    if (done == cfg.strikes) ++completions;
  }
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(calls.back().first, cfg.strikes);
}

TEST(ParallelCampaignTest, MetricsSnapshotIdenticalAcrossJobCounts) {
  // The merged registry must be a pure function of (seed, strikes,
  // shard_count): per-shard deltas are folded post-join in shard
  // order, so the snapshot can't depend on worker interleaving.
  CampaignConfig cfg;
  cfg.strikes = 30'000;
  std::vector<std::string> snapshots;
  for (std::uint32_t jobs : {1u, 2u, 8u}) {
    obs::Context ctx;
    ExecConfig exec;
    exec.shards = 4;
    exec.jobs = jobs;
    exec.obs = &ctx;
    run_campaign_sharded(surfaces(), model(), cfg, exec);
    snapshots.push_back(ctx.registry.to_json());
  }
  EXPECT_EQ(snapshots[0], snapshots[1]);
  EXPECT_EQ(snapshots[0], snapshots[2]);
  // The snapshot must actually carry the campaign counters.
  EXPECT_NE(snapshots[0].find("campaign.strikes"), std::string::npos);
}

TEST(ParallelCampaignTest, HeartbeatStreamIsSchemaValidNdjson) {
  CampaignConfig cfg;
  cfg.strikes = 60'000;
  cfg.progress_interval = 1'000;  // chunks of 1,000 strikes
  cfg.progress = [](std::uint64_t, std::uint64_t) {};
  const std::string path = temp_path("ftspm_heartbeat_test");
  std::remove(path.c_str());
  ExecConfig exec;
  exec.jobs = 4;
  exec.shards = 4;
  exec.heartbeat.out_path = path;
  exec.heartbeat.interval_ms = 1;  // force at least one mid-run beat
  const ShardedRun run = run_campaign_sharded(surfaces(), model(), cfg, exec);
  EXPECT_TRUE(run.complete);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::vector<JsonValue> beats = parse_ndjson(buffer.str());
  // First beat fires immediately and a final beat is flushed at stop.
  ASSERT_GE(beats.size(), 2u);
  for (const JsonValue& beat : beats) {
    EXPECT_DOUBLE_EQ(beat.at("schema").number, 1.0);
    EXPECT_EQ(beat.at("event").string, "heartbeat");
    EXPECT_EQ(beat.at("shards").array.size(), 4u);
    EXPECT_LE(beat.at("done").number, static_cast<double>(cfg.strikes));
    EXPECT_DOUBLE_EQ(beat.at("total").number,
                     static_cast<double>(cfg.strikes));
    EXPECT_GE(beat.at("pool_utilization").number, 0.0);
    EXPECT_LE(beat.at("pool_utilization").number, 1.0);
  }
  EXPECT_EQ(beats.back().at("final").boolean, true);
  EXPECT_DOUBLE_EQ(beats.back().at("done").number,
                   static_cast<double>(cfg.strikes));
  std::remove(path.c_str());
}

TEST(ParallelCampaignTest, HeartbeatChunksTotalCountsProgressCuts) {
  // Chunks end at each shard's multiples of the progress interval as
  // well as at kChunkStrikes boundaries; the final beat must have run
  // every chunk chunks_total announced.
  CampaignConfig cfg;
  cfg.strikes = 750'003;
  cfg.progress_interval = 100'000;
  cfg.progress = [](std::uint64_t, std::uint64_t) {};
  const std::string path = temp_path("ftspm_heartbeat_chunks_test");
  std::remove(path.c_str());
  ExecConfig exec;
  exec.jobs = 2;
  exec.shards = 3;
  exec.heartbeat.out_path = path;
  run_campaign_sharded(surfaces(), model(), cfg, exec);

  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::vector<JsonValue> beats = parse_ndjson(buffer.str());
  ASSERT_FALSE(beats.empty());
  const JsonValue& last = beats.back();
  EXPECT_EQ(last.at("final").boolean, true);
  // Shards of 250,001 strikes in chunks of at most 65,536, cut at
  // every multiple of 100,000: two chunks in each of the 2 whole
  // intervals, then one for the tail (4 per shard without the cuts).
  static_assert(kChunkStrikes == 65'536);
  EXPECT_DOUBLE_EQ(last.at("chunks_total").number, 3.0 * (2 * 2 + 1));
  EXPECT_DOUBLE_EQ(last.at("chunks_done").number,
                   last.at("chunks_total").number);
  std::remove(path.c_str());
}

TEST(ParallelCampaignTest, HeartbeatNeverTouchesDeterministicArtefacts) {
  // A heartbeat-enabled run must leave the merged counters and the
  // metrics registry exactly as a silent run would.
  CampaignConfig cfg;
  cfg.strikes = 20'000;
  obs::Context silent_obs;
  ExecConfig silent;
  silent.shards = 2;
  silent.jobs = 2;
  silent.obs = &silent_obs;
  const ShardedRun plain =
      run_campaign_sharded(surfaces(), model(), cfg, silent);

  const std::string path = temp_path("ftspm_heartbeat_purity_test");
  obs::Context noisy_obs;
  ExecConfig noisy = silent;
  noisy.heartbeat.out_path = path;
  noisy.heartbeat.interval_ms = 1;
  noisy.obs = &noisy_obs;
  const ShardedRun beating =
      run_campaign_sharded(surfaces(), model(), cfg, noisy);
  expect_same(plain.merged, beating.merged);
  EXPECT_EQ(silent_obs.registry.to_json(), noisy_obs.registry.to_json());
  std::remove(path.c_str());
}

TEST(ParallelCampaignTest, SharedPoolMatchesPrivatePoolBitForBit) {
  // ExecConfig::pool lets the serve daemon run every request on one
  // long-lived pool; results must be identical to a run that built its
  // own pool (determinism contract: concurrency never reaches results).
  CampaignConfig cfg;
  cfg.strikes = 30'000;
  ExecConfig private_pool;
  private_pool.jobs = 4;
  private_pool.shards = 4;
  const ShardedRun a =
      run_campaign_sharded(surfaces(), model(), cfg, private_pool);

  ThreadPool shared(2);
  ExecConfig with_shared = private_pool;
  with_shared.pool = &shared;
  const ShardedRun b =
      run_campaign_sharded(surfaces(), model(), cfg, with_shared);
  expect_same(a.merged, b.merged);

  // Back-to-back runs on the same pool stay identical (no state leaks
  // across requests through the pool).
  const ShardedRun c =
      run_campaign_sharded(surfaces(), model(), cfg, with_shared);
  expect_same(a.merged, c.merged);
}

TEST(ParallelCampaignTest, PreCancelledRunStopsWithPartialResults) {
  CampaignConfig cfg;
  cfg.strikes = 200'000;
  ExecConfig exec;
  exec.jobs = 2;
  exec.shards = 2;
  std::atomic<bool> cancel{true};  // Cancelled before the first chunk.
  exec.cancel = &cancel;
  const ShardedRun run = run_campaign_sharded(surfaces(), model(), cfg, exec);
  EXPECT_FALSE(run.complete);
  EXPECT_EQ(run.merged.strikes, 0u);
}

TEST(ParallelCampaignTest, MidRunCancelHaltsBeforeCompletion) {
  CampaignConfig cfg;
  cfg.strikes = 5'000'000;  // Big enough that cancel lands mid-run.
  std::atomic<bool> cancel{false};
  ExecConfig exec;
  exec.jobs = 2;
  exec.shards = 2;
  exec.cancel = &cancel;
  cfg.progress_interval = 1'000;
  cfg.progress = [&](std::uint64_t done, std::uint64_t) {
    if (done >= 10'000) cancel.store(true, std::memory_order_relaxed);
  };
  const ShardedRun run = run_campaign_sharded(surfaces(), model(), cfg, exec);
  EXPECT_FALSE(run.complete);
  EXPECT_GT(run.merged.strikes, 0u);
  EXPECT_LT(run.merged.strikes, cfg.strikes);
}

TEST(ParallelCampaignTest, AutoShardCountFollowsJobs) {
  ExecConfig exec;
  exec.jobs = 3;
  exec.shards = 0;
  EXPECT_EQ(exec.effective_jobs(), 3u);
  EXPECT_EQ(exec.effective_shards(), 3u);
  exec.jobs = 0;
  EXPECT_EQ(exec.effective_jobs(), default_jobs());
  EXPECT_EQ(exec.effective_shards(), default_jobs());
}

}  // namespace
}  // namespace ftspm::exec
