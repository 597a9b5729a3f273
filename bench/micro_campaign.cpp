// Campaign hot-loop microbenchmarks (google-benchmark): the syndrome
// kernel strike classifier against the encode/flip/decode oracle it
// replaced, and the allocation-free static-campaign chunk loop. The
// kernel-vs-oracle pair is the per-flip-count view of the classifier
// ratio bench/ratio_gate gates on.
#include <benchmark/benchmark.h>

#include "bench_io.h"
#include "ftspm/fault/injector.h"
#include "ftspm/fault/strike_model.h"
#include "ftspm/oracle/strike_oracle.h"
#include "ftspm/util/rng.h"

namespace {

using namespace ftspm;

const InjectionRegion& secded_region() {
  static const InjectionRegion region{RegionGeometry(8192, 8),
                                      ProtectionKind::SecDed, 1.0, 1};
  return region;
}

// Kernel and oracle walk identical (origin, flips, RNG) sequences, so
// their timings divide into the classifier speedup directly.
void BM_ClassifyStrikeKernel(benchmark::State& state) {
  const InjectionRegion& region = secded_region();
  const std::uint64_t bits = region.geometry.physical_bits();
  const auto flips = static_cast<std::uint32_t>(state.range(0));
  CampaignScratch scratch;
  Rng rng(7);
  std::uint64_t bit = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        classify_strike(region, bit % bits, flips, rng, scratch));
    bit += 131;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClassifyStrikeKernel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ClassifyStrikeOracle(benchmark::State& state) {
  const InjectionRegion& region = secded_region();
  const std::uint64_t bits = region.geometry.physical_bits();
  const auto flips = static_cast<std::uint32_t>(state.range(0));
  Rng rng(7);
  std::uint64_t bit = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        classify_strike_oracle(region, bit % bits, flips, rng));
    bit += 131;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClassifyStrikeOracle)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The tight chunk loop — aim draws, flip count, run-table classifier,
// ACE filter, packed tally — on the bulk_static region (8 KB SEC-DED,
// occupancy 1) at the shard-scratch steady state the parallel runner
// reaches after its first chunk, under four multiplicity mixes:
//   0  every strike 1-bit (no tail: the floor);
//   1  the paper's 40 nm mix (62/25/6/7%);
//   2  1 or 2 bits, 50/50 (no tail, a coin-flip count);
//   3  every strike 3-bit (no tail; a run whose verdict depends on
//      which bits it covers, still one table read).
// Rows 0 and 2 do the same work per strike, so a gap between them is
// the price of a mispredicted branch on the flip count — the canary
// for a compiler turning the branch-free count back into a jump. Row 3
// against row 0 is the price of a multi-bit run, once a syndrome fold.
void BM_CampaignChunk(benchmark::State& state) {
  static const StrikeMultiplicityModel kMixes[] = {
      StrikeMultiplicityModel(1.0, 0.0, 0.0, 0.0),
      StrikeMultiplicityModel::at_40nm(),
      StrikeMultiplicityModel(0.5, 0.5, 0.0, 0.0),
      StrikeMultiplicityModel(0.0, 0.0, 1.0, 0.0)};
  static const char* const kLabels[] = {"1-bit", "40nm", "1-or-2-bit",
                                        "3-bit"};
  const auto mix = static_cast<std::size_t>(state.range(0));
  const std::vector<InjectionRegion> regions{secded_region()};
  constexpr std::uint64_t kChunk = 4096;
  CampaignConfig config;
  config.strikes = ~std::uint64_t{0};  // never the stopping condition
  CampaignShardState shard = begin_campaign_shard(config.seed);
  for (auto _ : state) {
    run_campaign_chunk(regions, kMixes[mix], config, shard, kChunk);
    benchmark::DoNotOptimize(shard.partial);
  }
  state.SetLabel(kLabels[mix]);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChunk));
}
BENCHMARK(BM_CampaignChunk)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// The same loop over a mixed surface: four regions, every protection
// kind, partial ACE occupancy — the region pick and ACE draws that the
// single-region rows above never vary.
void BM_CampaignChunkMixedSurface(benchmark::State& state) {
  const std::vector<InjectionRegion> regions{
      {RegionGeometry(8192, 8), ProtectionKind::SecDed, 0.9, 1},
      {RegionGeometry(8192, 1), ProtectionKind::Parity, 0.7, 1},
      {RegionGeometry(2048, 0), ProtectionKind::None, 0.4, 1},
      {RegionGeometry(2048, 0), ProtectionKind::Immune, 1.0, 1}};
  const StrikeMultiplicityModel strikes = StrikeMultiplicityModel::at_40nm();
  constexpr std::uint64_t kChunk = 4096;
  CampaignConfig config;
  config.strikes = ~std::uint64_t{0};  // never the stopping condition
  CampaignShardState shard = begin_campaign_shard(config.seed);
  for (auto _ : state) {
    run_campaign_chunk(regions, strikes, config, shard, kChunk);
    benchmark::DoNotOptimize(shard.partial);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChunk));
}
BENCHMARK(BM_CampaignChunkMixedSurface);

}  // namespace

int main(int argc, char** argv) {
  return ftspm::bench::run_google_benchmark(argc, argv);
}
