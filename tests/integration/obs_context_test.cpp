// Telemetry is a value: two runs in one process, on two threads, each
// handed its own obs::Context, must leave exactly the telemetry each run
// leaves when it runs alone — the same registry snapshot, trace and
// event log, byte for byte. Each run is a sharded campaign on a private
// pool (jobs 2) followed by an FTSPM evaluation (MDA + simulator).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "ftspm/core/systems.h"
#include "ftspm/exec/parallel_campaign.h"
#include "ftspm/fault/strike_model.h"
#include "ftspm/obs/context.h"
#include "ftspm/workload/case_study.h"
#include "ftspm/workload/suite.h"

namespace ftspm {
namespace {

struct Telemetry {
  std::string metrics;
  std::string trace;
  std::string events;
};

/// One run's inputs; the two threads get different ones, so telemetry
/// leaking from one context into the other would change both.
struct RunInputs {
  std::uint64_t seed;
  Workload workload;
};

Telemetry run_once(const RunInputs& in) {
  obs::TraceEventSink trace;
  obs::EventLog events;
  obs::Context ctx;
  ctx.trace = &trace;
  ctx.events = &events;

  const std::vector<InjectionRegion> regions{
      InjectionRegion{RegionGeometry(2048, 8), ProtectionKind::SecDed, 0.9, 1},
      InjectionRegion{RegionGeometry(1024, 1), ProtectionKind::Parity, 0.8,
                      1}};
  CampaignConfig cfg;
  cfg.strikes = 20'000;
  cfg.seed = in.seed;
  exec::ExecConfig exec;
  exec.shards = 4;
  exec.jobs = 2;
  exec.obs = &ctx;
  (void)exec::run_campaign_sharded(
      regions, StrikeMultiplicityModel::for_node(40.0), cfg, exec);

  const StructureEvaluator evaluator;
  const ProgramProfile profile = profile_workload(in.workload);
  (void)evaluator.evaluate_ftspm(in.workload, profile, &ctx);

  return Telemetry{ctx.registry.to_json(), trace.str(), events.str()};
}

void expect_same(const Telemetry& got, const Telemetry& alone) {
  EXPECT_EQ(got.metrics, alone.metrics);
  EXPECT_EQ(got.trace, alone.trace);
  EXPECT_EQ(got.events, alone.events);
}

TEST(ObsContextTest, ConcurrentRunsKeepSeparateTelemetry) {
  const RunInputs inputs[2] = {
      {1, make_case_study(CaseStudyTargets{}.scaled_down(8))},
      {2, make_benchmark(MiBenchmark::Sha, 16)}};
  const Telemetry alone[2] = {run_once(inputs[0]), run_once(inputs[1])};
  // The runs must differ, or a swap would go unnoticed.
  ASSERT_NE(alone[0].metrics, alone[1].metrics);
  ASSERT_NE(alone[0].trace, alone[1].trace);
  ASSERT_NE(alone[0].events, alone[1].events);
  // Every sink must be non-trivial: campaign counters, sim and mda
  // lanes, shard records.
  for (const Telemetry& t : alone) {
    EXPECT_NE(t.metrics.find("campaign.strikes"), std::string::npos);
    EXPECT_NE(t.metrics.find("sim.runs"), std::string::npos);
    EXPECT_NE(t.trace.find("shard0"), std::string::npos);
    EXPECT_NE(t.trace.find("decisions"), std::string::npos);
    EXPECT_NE(t.events.find("\"shard_end\""), std::string::npos);
  }

  constexpr int kRounds = 3;
  std::vector<Telemetry> got[2];
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i)
    threads.emplace_back([&, i] {
      for (int round = 0; round < kRounds; ++round)
        got[i].push_back(run_once(inputs[i]));
    });
  for (std::thread& t : threads) t.join();

  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ(got[i].size(), static_cast<std::size_t>(kRounds));
    for (const Telemetry& t : got[i]) expect_same(t, alone[i]);
  }
}

}  // namespace
}  // namespace ftspm
