// Recovery-loop microbenchmarks: the live-array campaign's two hot
// halves — demand decode (every struck word read and repaired on
// access) and scrub sweeps (periodic passes that repair every word
// with a nonzero cached syndrome) — each timed through the
// strike-at-a-time RecoveryReference (the ftspm_oracle target) and the
// batched engine, so the engine's win is measurable per half rather
// than only end to end (perf_harness measures the blended campaigns).
//
// Shapes mirror perf_harness: one SEC-DED SRAM region of 8192 words.
// The demand shape (ACE 1.0, no scrubbing) decodes every struck word;
// the scrub shape (ACE 0.05, sweep every 256 strikes) spends almost
// all its time in scrub sweeps. Counters are bit-identical between the
// two loops by contract (tests/fault/batch_engine_test.cpp), so the
// pairs time the same work.
#include <cstdint>

#include <benchmark/benchmark.h>

#include "bench_io.h"
#include "ftspm/fault/recovery.h"
#include "ftspm/mem/technology_library.h"
#include "ftspm/oracle/recovery_reference.h"

namespace {

using namespace ftspm;

constexpr std::uint64_t kStrikes = 20'000;

struct RecoveryCase {
  StrikeMultiplicityModel model;
  RecoveryPolicy policy;
  LiveArrayCampaign campaign;
  RecoveryReference reference;

  RecoveryCase(double ace_occupancy, std::uint64_t scrub_interval)
      : model(StrikeMultiplicityModel::at_40nm()),
        policy(make_policy(scrub_interval)),
        campaign(make_regions(ace_occupancy), model, policy),
        reference(make_regions(ace_occupancy), model, policy) {}

  static RecoveryPolicy make_policy(std::uint64_t scrub_interval) {
    RecoveryPolicy policy;
    policy.recover = true;
    policy.scrub_interval = scrub_interval;
    return policy;
  }

  static std::vector<RecoveryRegion> make_regions(double ace_occupancy) {
    const TechnologyLibrary lib;
    RecoveryRegion region;
    region.inject = InjectionRegion{RegionGeometry(8192, 8),
                                    ProtectionKind::SecDed, ace_occupancy, 1};
    region.tech = lib.secded_sram();
    region.dirty_fraction = 0.25;
    region.refetch_words = 64;
    region.scrub = true;
    return {region};
  }
};

const RecoveryCase& demand_case() {
  static const RecoveryCase c(1.0, 0);
  return c;
}

const RecoveryCase& scrub_case() {
  static const RecoveryCase c(0.05, 256);
  return c;
}

void run_recovery(benchmark::State& state, const RecoveryCase& c,
                  bool batched) {
  CampaignConfig cfg;
  cfg.strikes = kStrikes;
  RecoveryShardSide side;  // scratch capacity persists across iterations
  for (auto _ : state) {
    state.PauseTiming();
    side.initialized = false;
    side.counters = RecoveryCounters{};
    c.campaign.ensure_shard_images(side, cfg.seed);
    CampaignShardState core =
        begin_campaign_shard(cfg.seed ^ LiveArrayCampaign::kSeedSalt);
    state.ResumeTiming();
    if (batched)
      c.campaign.run_chunk(cfg, core, side, kStrikes);
    else
      c.reference.run_chunk(cfg, core, side, kStrikes);
    benchmark::DoNotOptimize(core.partial.masked);
    benchmark::DoNotOptimize(side.counters.demand_reads);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kStrikes));
}

void BM_RecoveryDemandReference(benchmark::State& state) {
  run_recovery(state, demand_case(), /*batched=*/false);
}
BENCHMARK(BM_RecoveryDemandReference);

void BM_RecoveryDemandBatched(benchmark::State& state) {
  run_recovery(state, demand_case(), /*batched=*/true);
}
BENCHMARK(BM_RecoveryDemandBatched);

void BM_RecoveryScrubReference(benchmark::State& state) {
  run_recovery(state, scrub_case(), /*batched=*/false);
}
BENCHMARK(BM_RecoveryScrubReference);

void BM_RecoveryScrubBatched(benchmark::State& state) {
  run_recovery(state, scrub_case(), /*batched=*/true);
}
BENCHMARK(BM_RecoveryScrubBatched);

}  // namespace

int main(int argc, char** argv) {
  return ftspm::bench::run_google_benchmark(argc, argv);
}
