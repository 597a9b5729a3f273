// The batched SoA campaign engine (injector_batch.cpp) against a
// strike-at-a-time reference that replays the documented RNG draw
// order (docs/performance.md, "RNG draw-order contract") through the
// classify_strike oracle. The engine reorders *work* — region tables,
// run-table classification, blocked tallies — but never *draws*, so
// every schedule below must reproduce the reference counters exactly:
// any block width, any chunk schedule, tight (no grid) and observed
// (grid-recording) paths alike.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ftspm/core/mapping_plan.h"
#include "ftspm/core/system_campaign.h"
#include "ftspm/core/systems.h"
#include "ftspm/ecc/parity_codec.h"
#include "ftspm/ecc/secded_codec.h"
#include "ftspm/fault/batch_engine.h"
#include "ftspm/fault/injector.h"
#include "ftspm/fault/recovery.h"
#include "ftspm/fault/sensitivity.h"
#include "ftspm/fault/strike_model.h"
#include "ftspm/mem/geometry.h"
#include "ftspm/mem/technology_library.h"
#include "ftspm/oracle/recovery_reference.h"
#include "ftspm/oracle/strike_oracle.h"
#include "ftspm/oracle/temporal_reference.h"
#include "ftspm/util/error.h"
#include "ftspm/util/rng.h"
#include "ftspm/workload/case_study.h"

namespace ftspm {
namespace {

/// One strike at a time, drawing exactly what docs/performance.md
/// promises: region pick, origin, multiplicity (with its coin-flip
/// tail), one burn per struck codeword inside classify_strike, then
/// the ACE draw iff the pre-ACE outcome was not Masked.
CampaignResult reference_campaign(const std::vector<InjectionRegion>& regions,
                                  const StrikeMultiplicityModel& model,
                                  const CampaignConfig& cfg,
                                  SensitivityGrid* grid = nullptr) {
  std::vector<double> weights;
  weights.reserve(regions.size());
  for (const InjectionRegion& r : regions)
    weights.push_back(static_cast<double>(r.geometry.physical_bits()));
  Rng rng(cfg.seed);
  CampaignScratch scratch;
  CampaignResult res;
  res.strikes = cfg.strikes;
  for (std::uint64_t s = 0; s < cfg.strikes; ++s) {
    const std::size_t idx = rng.next_discrete(weights);
    const InjectionRegion& region = regions[idx];
    const std::uint64_t origin =
        rng.next_below(region.geometry.physical_bits());
    const std::uint32_t flips = model.sample_flips(rng, cfg.max_flips);
    StrikeOutcome o = classify_strike(region, origin, flips, rng, scratch);
    if (o != StrikeOutcome::Masked && !rng.next_bool(region.ace_occupancy))
      o = StrikeOutcome::Masked;
    switch (o) {
      case StrikeOutcome::Masked: ++res.masked; break;
      case StrikeOutcome::Dre: ++res.dre; break;
      case StrikeOutcome::Due: ++res.due; break;
      case StrikeOutcome::Sdc: ++res.sdc; break;
    }
    if (grid != nullptr) grid->record(idx, origin, o);
  }
  return res;
}

void expect_equal(const CampaignResult& got, const CampaignResult& want,
                  const char* what) {
  EXPECT_EQ(got.strikes, want.strikes) << what;
  EXPECT_EQ(got.masked, want.masked) << what;
  EXPECT_EQ(got.dre, want.dre) << what;
  EXPECT_EQ(got.due, want.due) << what;
  EXPECT_EQ(got.sdc, want.sdc) << what;
}

CampaignConfig config_for(std::uint64_t seed, std::uint64_t strikes) {
  CampaignConfig cfg;
  cfg.seed = seed;
  cfg.strikes = strikes;
  return cfg;
}

std::vector<InjectionRegion> mixed_surfaces() {
  return {{RegionGeometry(8192, 8), ProtectionKind::SecDed, 0.9, 1},
          {RegionGeometry(8192, 1), ProtectionKind::Parity, 0.7, 1},
          {RegionGeometry(2048, 0), ProtectionKind::None, 0.4, 1},
          {RegionGeometry(2048, 0), ProtectionKind::Immune, 1.0, 1}};
}

TEST(BatchEngine, MatchesReferenceOnMixedSurfaces) {
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  for (const std::uint64_t seed : {0x57a1ce5eedULL, 0x1234fedcULL}) {
    const CampaignConfig cfg = config_for(seed, 50'000);
    expect_equal(run_campaign(mixed_surfaces(), model, cfg),
                 reference_campaign(mixed_surfaces(), model, cfg), "mixed");
  }
}

TEST(BatchEngine, MatchesReferenceUnderInterleaving) {
  // Interleaved regions take the general (gather) path: an m-bit MBU
  // scatters over IL codewords, so run-length classification no longer
  // applies — but the draws must not move.
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  const std::vector<InjectionRegion> regions{
      {RegionGeometry(4096, 8), ProtectionKind::SecDed, 1.0, 2},
      {RegionGeometry(4096, 8), ProtectionKind::SecDed, 0.6, 4},
      {RegionGeometry(4096, 1), ProtectionKind::Parity, 0.8, 2}};
  const CampaignConfig cfg = config_for(0xabcdef01, 30'000);
  expect_equal(run_campaign(regions, model, cfg),
               reference_campaign(regions, model, cfg), "interleaved");
}

TEST(BatchEngine, MatchesReferenceOnExoticGeometries) {
  // A parity region with two check bits per word fails the
  // lut-classifiable test and must fall back to the general per-word
  // path — with identical outcomes and draws.
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  const std::vector<InjectionRegion> regions{
      {RegionGeometry(1024, 2), ProtectionKind::Parity, 0.9, 1},
      {RegionGeometry(1024, 8), ProtectionKind::SecDed, 0.5, 1}};
  const CampaignConfig cfg = config_for(0x600dcafe, 30'000);
  expect_equal(run_campaign(regions, model, cfg),
               reference_campaign(regions, model, cfg), "exotic");
}

TEST(BatchEngine, MatchesReferenceWithSpillSizedStrikes) {
  // max_flips beyond CampaignScratch::kInlineHits exercises the spill
  // buffer and the multi-word straddle path in the same run.
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  CampaignConfig cfg = config_for(0xfeedf00d, 20'000);
  cfg.max_flips = CampaignScratch::kInlineHits + 32;
  const std::vector<InjectionRegion> regions{
      {RegionGeometry(2048, 8), ProtectionKind::SecDed, 0.75, 1},
      {RegionGeometry(2048, 8), ProtectionKind::SecDed, 0.75, 3}};
  expect_equal(run_campaign(regions, model, cfg),
               reference_campaign(regions, model, cfg), "spill");
}

TEST(BatchEngine, MatchesReferenceAtAceOccupancyEdges) {
  // ace 0 (every unmasked strike dies, no draw) and ace 1 (every one
  // survives, no draw) skip the Bernoulli draw entirely — exactly as
  // Rng::next_bool would — so the stream stays aligned either way.
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  const std::vector<InjectionRegion> regions{
      {RegionGeometry(4096, 8), ProtectionKind::SecDed, 0.0, 1},
      {RegionGeometry(4096, 8), ProtectionKind::SecDed, 1.0, 1},
      {RegionGeometry(4096, 0), ProtectionKind::None, 0.5, 1}};
  const CampaignConfig cfg = config_for(0x0ace0ace, 30'000);
  expect_equal(run_campaign(regions, model, cfg),
               reference_campaign(regions, model, cfg), "ace edges");
}

TEST(BatchEngine, BlockWidthNeverChangesCounters) {
  // Block size is pure scheduling (injector.h, kCampaignBatchWidth):
  // width 1 degenerates to strike-at-a-time, 33 leaves a ragged last
  // block, 256 is the production width.
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  const CampaignConfig cfg = config_for(0x57a1ce5eed, 40'000);
  const CampaignResult want = reference_campaign(mixed_surfaces(), model, cfg);
  for (const std::uint32_t width : {1u, 3u, 7u, 33u, 256u, 1000u}) {
    CampaignShardState state = begin_campaign_shard(cfg.seed);
    state.scratch.batch.width = width;
    run_campaign_chunk(mixed_surfaces(), model, cfg, state, cfg.strikes);
    expect_equal(state.partial, want,
                 ("width " + std::to_string(width)).c_str());
  }
}

TEST(BatchEngine, ChunkScheduleNeverChangesCounters) {
  // Any chunk schedule reaching config.strikes must agree with one
  // serial run — chunks cut blocks short mid-campaign, so this pins
  // the resume path (checkpointing) too.
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  const CampaignConfig cfg = config_for(0x7a7aa77a, 30'000);
  const CampaignResult want = reference_campaign(mixed_surfaces(), model, cfg);
  const std::vector<std::vector<std::uint64_t>> schedules{
      {30'000},
      {1, 1, 1, 29'997},
      {997, 4096, 30'000},  // over-asking stops at config.strikes
      {10'000, 10'000, 10'000}};
  for (const auto& schedule : schedules) {
    CampaignShardState state = begin_campaign_shard(cfg.seed);
    for (const std::uint64_t step : schedule)
      run_campaign_chunk(mixed_surfaces(), model, cfg, state, step);
    expect_equal(state.partial, want, "chunk schedule");
  }
}

TEST(BatchEngine, TightAndObservedPathsAgree) {
  // With a grid attached the engine keeps full per-slot SoA arrays;
  // without one it tallies in registers and stores nothing. Same counters either way, and the grid totals
  // must re-add to them.
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  const CampaignConfig cfg = config_for(0x9e3779b9, 40'000);
  const CampaignResult tight = run_campaign(mixed_surfaces(), model, cfg);

  SensitivityGrid grid = make_sensitivity_grid(mixed_surfaces(), 16);
  const CampaignResult observed =
      run_campaign(mixed_surfaces(), model, cfg, &grid);
  expect_equal(observed, tight, "tight vs observed");

  const CampaignResult totals = grid.totals();
  EXPECT_EQ(totals.masked, tight.masked);
  EXPECT_EQ(totals.dre, tight.dre);
  EXPECT_EQ(totals.due, tight.due);
  EXPECT_EQ(totals.sdc, tight.sdc);
}

TEST(BatchEngine, GridCellsMatchReference) {
  // Not just the grand totals: every (region, bucket, outcome) cell of
  // the sensitivity grid must match the reference recording, byte for
  // byte through the CSV round trip.
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  const CampaignConfig cfg = config_for(0x5ca1ab1e, 40'000);
  SensitivityGrid engine_grid = make_sensitivity_grid(mixed_surfaces(), 16);
  SensitivityGrid reference_grid = make_sensitivity_grid(mixed_surfaces(), 16);
  const CampaignResult engine =
      run_campaign(mixed_surfaces(), model, cfg, &engine_grid);
  const CampaignResult reference =
      reference_campaign(mixed_surfaces(), model, cfg, &reference_grid);
  expect_equal(engine, reference, "gridded counters");
  EXPECT_EQ(engine_grid.to_csv(), reference_grid.to_csv());
}

/// One more strike than a 16-bit lane of the static engine's packed
/// outcome tally can hold. The recovery and temporal engines count in
/// 64-bit words; their runs of this length guard any narrower tally.
constexpr std::uint64_t kPastOneLane = (std::uint64_t{1} << 16) + 1;

/// Block widths past a lane's capacity: the static engine must still
/// flush before a lane wraps.
constexpr std::uint32_t kWideBlocks[] = {70'000u, 1u << 17};

TEST(BatchEngine, PackedTallyCountsPastOneLaneOfOneOutcome) {
  // Every strike on an all-Immune surface is Masked, so one lane takes
  // every count — in the tight loop and in the gridded stage-3 tally.
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  const std::vector<InjectionRegion> regions{
      {RegionGeometry(1024, 0), ProtectionKind::Immune, 1.0, 1}};
  const CampaignConfig cfg = config_for(0x7a11e5, kPastOneLane);
  for (const std::uint32_t width : kWideBlocks) {
    for (const bool gridded : {false, true}) {
      SensitivityGrid grid = make_sensitivity_grid(regions, 4);
      CampaignShardState state = begin_campaign_shard(cfg.seed);
      state.scratch.batch.width = width;
      run_campaign_chunk(regions, model, cfg, state, cfg.strikes,
                         gridded ? &grid : nullptr);
      const std::string what = "width " + std::to_string(width) +
                               (gridded ? " gridded" : " tight");
      EXPECT_EQ(state.partial.strikes, kPastOneLane) << what;
      EXPECT_EQ(state.partial.masked, kPastOneLane) << what;
      EXPECT_EQ(state.partial.dre + state.partial.due + state.partial.sdc, 0u)
          << what;
    }
  }
}

TEST(BatchEngine, MatchesReferenceAtBlockWidthsPastOneLane) {
  // A fully occupied SEC-DED surface corrects ~58% of these strikes, so
  // a 2^17-strike block holds more Dre outcomes than one lane can.
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  const std::vector<InjectionRegion> regions{
      {RegionGeometry(8192, 8), ProtectionKind::SecDed, 1.0, 1},
      {RegionGeometry(1024, 1), ProtectionKind::Parity, 0.7, 1}};
  const CampaignConfig cfg = config_for(0x3a5e1a7e, 2 * kPastOneLane + 7);
  const CampaignResult want = reference_campaign(regions, model, cfg);
  ASSERT_GT(want.dre, kPastOneLane);
  for (const std::uint32_t width : kWideBlocks) {
    for (const bool gridded : {false, true}) {
      SensitivityGrid grid = make_sensitivity_grid(regions, 4);
      CampaignShardState state = begin_campaign_shard(cfg.seed);
      state.scratch.batch.width = width;
      run_campaign_chunk(regions, model, cfg, state, cfg.strikes,
                         gridded ? &grid : nullptr);
      expect_equal(state.partial, want,
                   ("width " + std::to_string(width) +
                    (gridded ? " gridded" : " tight"))
                       .c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// The flip count. detail::sample_flips_draw counts the cutoffs at or
// below the draw with arithmetic (detail::at_or_past) rather than
// compares, so the compiler has no branch to make of it; it must stay
// StrikeMultiplicityModel::sample_flips draw for draw.

/// The four modelled nodes plus degenerate mixes whose cutoffs sit at
/// the ends of the draw-bits domain, 0 and 2^53.
std::vector<StrikeMultiplicityModel> flip_models() {
  return {StrikeMultiplicityModel::at_22nm(),
          StrikeMultiplicityModel::at_40nm(),
          StrikeMultiplicityModel::at_65nm(),
          StrikeMultiplicityModel::at_90nm(),
          StrikeMultiplicityModel(1.0, 0.0, 0.0, 0.0),   // all at 2^53
          StrikeMultiplicityModel(0.0, 0.0, 0.0, 1.0),   // all at 0
          StrikeMultiplicityModel(0.0, 1.0, 0.0, 0.0)};  // 0, 2^53, 2^53
}

TEST(BatchEngineFlips, DegenerateModelsPutCutoffsAtTheDomainEnds) {
  const std::vector<StrikeMultiplicityModel> models = flip_models();
  const detail::FlipCutoffs one_bit = detail::make_flip_cutoffs(models[4], 16);
  EXPECT_EQ(one_bit.b1, detail::kDrawBitsEnd);
  EXPECT_EQ(one_bit.b3, detail::kDrawBitsEnd);
  const detail::FlipCutoffs tail = detail::make_flip_cutoffs(models[5], 16);
  EXPECT_EQ(tail.b1, 0u);
  EXPECT_EQ(tail.b3, 0u);
  const detail::FlipCutoffs two_bit = detail::make_flip_cutoffs(models[6], 16);
  EXPECT_EQ(two_bit.b1, 0u);
  EXPECT_EQ(two_bit.b2, detail::kDrawBitsEnd);
}

TEST(BatchEngineFlips, BranchFreeCountMatchesCompareAtEveryCutoff) {
  for (const StrikeMultiplicityModel& model : flip_models()) {
    const detail::FlipCutoffs c = detail::make_flip_cutoffs(model, 16);
    for (const std::uint64_t b : {c.b1, c.b2, c.b3}) {
      ASSERT_LE(b, detail::kDrawBitsEnd);
      for (const std::uint64_t ub :
           {b - 1, b, b + 1, std::uint64_t{0}, detail::kDrawBitsEnd - 1}) {
        // Only draw bits are in the domain: this skips b - 1 at b = 0
        // (it wraps) and b and b + 1 at b = 2^53.
        if (ub >= detail::kDrawBitsEnd) continue;
        EXPECT_EQ(detail::at_or_past(ub, b), ub >= b ? 1u : 0u)
            << "ub " << ub << " cutoff " << b;
      }
    }
  }
}

TEST(BatchEngineFlips, SampleFlipsDrawMatchesTheModelDrawForDraw) {
  // 1M draws per cap, cycling through the four nodes; the >3-bit tail
  // is capped at 4 (no coin flips at all), 5, the default 16, and 64.
  const std::vector<StrikeMultiplicityModel> all = flip_models();
  const std::vector<StrikeMultiplicityModel> nodes(all.begin(),
                                                   all.begin() + 4);
  for (const std::uint32_t max_flips : {4u, 5u, 16u, 64u}) {
    std::vector<detail::FlipCutoffs> cuts;
    for (const StrikeMultiplicityModel& m : nodes)
      cuts.push_back(detail::make_flip_cutoffs(m, max_flips));
    Rng engine(0xf11b5eed ^ max_flips);
    Rng reference(0xf11b5eed ^ max_flips);
    std::uint64_t mismatches = 0, tail = 0;
    for (std::uint64_t i = 0; i < 1'000'000; ++i) {
      const std::size_t k = i % nodes.size();
      const std::uint32_t got =
          detail::sample_flips_draw(engine, cuts[k], max_flips);
      const std::uint32_t want = nodes[k].sample_flips(reference, max_flips);
      mismatches += got != want;
      tail += got > 4;
    }
    EXPECT_EQ(mismatches, 0u) << "max_flips " << max_flips;
    EXPECT_EQ(engine.state(), reference.state()) << "max_flips " << max_flips;
    if (max_flips > 4) {
      EXPECT_GT(tail, 0u) << "max_flips " << max_flips;
    }
  }
}

// ---------------------------------------------------------------------------
// Recovery: the batched run_chunk (recovery_batch.cpp) against the
// strike-at-a-time RecoveryReference (the ftspm_oracle target) it
// replaced. The contract is stronger than counter equality — the
// stored images, the recovery counters (cycles and energy bit for
// bit), the sensitivity grid, and the post-campaign RNG state must all
// match, under any chunk schedule.

RecoveryRegion make_recovery_region(RegionGeometry geom, ProtectionKind prot,
                                    double ace, std::uint32_t interleave,
                                    double dirty, bool scrub) {
  const TechnologyLibrary lib;
  RecoveryRegion region;
  region.inject = InjectionRegion{geom, prot, ace, interleave};
  region.tech = lib.secded_sram();
  region.dirty_fraction = dirty;
  region.refetch_words = 64;
  region.scrub = scrub;
  return region;
}

struct RecoveryRun {
  CampaignResult strikes;
  RecoveryCounters counters;
  std::vector<RegionImage> images;
  std::uint64_t rng_probe = 0;  ///< next_u64 after the campaign
};

/// The batched engine and its reference, built from the same
/// arguments.
struct RecoveryUnderTest {
  std::vector<RecoveryRegion> regions;
  LiveArrayCampaign engine;
  RecoveryReference reference;

  RecoveryUnderTest(const std::vector<RecoveryRegion>& regions,
                    const StrikeMultiplicityModel& model,
                    const RecoveryPolicy& policy)
      : regions(regions),
        engine(regions, model, policy),
        reference(regions, model, policy) {}
};

/// The engine's shadow invariant (RegionImage::syndrome): every word of
/// a Parity or SEC-DED image caches the syndrome its images fold to,
/// and the pad past the last word stays 0.
void expect_syndrome_shadow(const std::vector<RecoveryRegion>& regions,
                            const RecoveryShardSide& side,
                            const std::string& what) {
  for (std::size_t r = 0; r < regions.size(); ++r) {
    const ProtectionKind protection = regions[r].inject.protection;
    const RegionImage& image = side.images[r];
    if (protection != ProtectionKind::Parity &&
        protection != ProtectionKind::SecDed) {
      EXPECT_TRUE(image.syndrome.empty()) << what << " region " << r;
      continue;
    }
    const std::size_t words = image.data.size();
    ASSERT_EQ(image.syndrome.size(), (words + 63) / 64 * 64)
        << what << " region " << r;
    std::vector<std::uint64_t> data_masks(words);
    std::vector<std::uint8_t> check_masks(words);
    for (std::size_t w = 0; w < words; ++w) {
      data_masks[w] = image.data[w] ^ image.truth[w];
      check_masks[w] =
          static_cast<std::uint8_t>(image.check[w] ^ image.truth_check[w]);
    }
    std::vector<std::uint8_t> want(words);
    if (protection == ProtectionKind::SecDed)
      SecDedCodec::fold_syndromes_scalar(data_masks.data(),
                                         check_masks.data(), words,
                                         want.data());
    else
      ParityCodec::fold_parity(data_masks.data(), check_masks.data(), words,
                               want.data());
    std::size_t stale = 0, first = words;
    for (std::size_t w = 0; w < words; ++w)
      if (image.syndrome[w] != want[w] && stale++ == 0) first = w;
    EXPECT_EQ(stale, 0u) << what << " region " << r
                         << " stale syndromes, the first at word " << first;
    EXPECT_TRUE(std::all_of(image.syndrome.begin() + words,
                            image.syndrome.end(),
                            [](std::uint8_t b) { return b == 0; }))
        << what << " region " << r << " pad";
  }
}

RecoveryRun drive_recovery(const RecoveryUnderTest& campaign,
                           const CampaignConfig& cfg, bool batched,
                           const std::vector<std::uint64_t>& schedule,
                           SensitivityGrid* grid = nullptr) {
  CampaignShardState core =
      begin_campaign_shard(cfg.seed ^ LiveArrayCampaign::kSeedSalt);
  RecoveryShardSide side;
  campaign.engine.ensure_shard_images(side, cfg.seed);
  for (const std::uint64_t step : schedule) {
    if (batched) {
      campaign.engine.run_chunk(cfg, core, side, step, grid);
      expect_syndrome_shadow(campaign.regions, side,
                             "after chunk ending at " +
                                 std::to_string(core.done));
    } else {
      campaign.reference.run_chunk(cfg, core, side, step, grid);
    }
  }
  RecoveryRun run;
  run.strikes = core.partial;
  run.counters = side.counters;
  run.images = std::move(side.images);
  run.rng_probe = core.rng.next_u64();
  return run;
}

void expect_recovery_equal(const RecoveryRun& got, const RecoveryRun& want,
                           const std::string& what) {
  expect_equal(got.strikes, want.strikes, what.c_str());
  EXPECT_EQ(got.counters.demand_reads, want.counters.demand_reads) << what;
  EXPECT_EQ(got.counters.corrections, want.counters.corrections) << what;
  EXPECT_EQ(got.counters.scrub_passes, want.counters.scrub_passes) << what;
  EXPECT_EQ(got.counters.scrub_words, want.counters.scrub_words) << what;
  EXPECT_EQ(got.counters.scrub_corrections, want.counters.scrub_corrections)
      << what;
  EXPECT_EQ(got.counters.refetches, want.counters.refetches) << what;
  EXPECT_EQ(got.counters.unrecoverable, want.counters.unrecoverable) << what;
  EXPECT_EQ(got.counters.sdc_reads, want.counters.sdc_reads) << what;
  EXPECT_EQ(got.counters.recovery_cycles, want.counters.recovery_cycles)
      << what;
  // Bit-identical, not approximately: both loops accumulate energy in
  // the same per-event order.
  EXPECT_EQ(got.counters.recovery_energy_pj, want.counters.recovery_energy_pj)
      << what;
  EXPECT_EQ(got.rng_probe, want.rng_probe) << what << " (RNG diverged)";
  ASSERT_EQ(got.images.size(), want.images.size()) << what;
  for (std::size_t r = 0; r < got.images.size(); ++r) {
    EXPECT_EQ(got.images[r].data, want.images[r].data) << what << " region "
                                                       << r;
    EXPECT_EQ(got.images[r].check, want.images[r].check) << what << " region "
                                                         << r;
    EXPECT_EQ(got.images[r].truth, want.images[r].truth) << what << " region "
                                                         << r;
    EXPECT_EQ(got.images[r].truth_check, want.images[r].truth_check)
        << what << " region " << r;
  }
}

TEST(BatchEngineRecovery, MatchesReferenceAcrossScrubDirtyAndOccupancy) {
  // The axes the batched demand walk and scrub sweep branch on:
  // scrub-interval edges (0 = never, 1 = every strike, 7 = ragged,
  // 2048 = the golden shape), dirty-fraction refetch arms (0 = always
  // re-fetch, 1 = always unrecoverable, draws in between), and ACE
  // occupancy boundaries (0 and 1 skip the Bernoulli draw entirely).
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  const struct {
    std::uint64_t interval;
    double ace, dirty;
    bool recover;
  } shapes[] = {{0, 0.25, 0.25, true},  {1, 0.25, 0.25, true},
                {7, 1.0, 0.0, true},    {2048, 0.25, 0.5, true},
                {256, 0.05, 1.0, true}, {64, 0.0, 0.25, true},
                {32, 0.5, 0.25, false},  // scrub-only: no demand repair
                {0, 0.5, 0.25, false}};  // inert policy shape
  for (const auto& s : shapes) {
    RecoveryPolicy policy;
    policy.recover = s.recover;
    policy.scrub_interval = s.interval;
    const RecoveryUnderTest campaign(
        {make_recovery_region(RegionGeometry(4096, 8), ProtectionKind::SecDed,
                              s.ace, 1, s.dirty, true)},
        model, policy);
    const CampaignConfig cfg = config_for(0x57a1ce5eed, 15'000);
    expect_recovery_equal(
        drive_recovery(campaign, cfg, true, {cfg.strikes}),
        drive_recovery(campaign, cfg, false, {cfg.strikes}),
        "interval=" + std::to_string(s.interval) +
            " ace=" + std::to_string(s.ace) +
            " dirty=" + std::to_string(s.dirty) +
            " recover=" + std::to_string(s.recover));
  }
}

TEST(BatchEngineRecovery, MatchesReferenceOnMixedProtections) {
  // Every protection arm of the demand walk and scrub sweep in one
  // campaign, including interleaved SEC-DED (gather path) and the
  // None-with-check-bits regression: a strike into an unprotected
  // region's check plane must stay Masked/Clean — the reference
  // consults the data mask alone, and so must the batched verdict.
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  const std::vector<RecoveryRegion> regions{
      make_recovery_region(RegionGeometry(2048, 8), ProtectionKind::SecDed,
                           0.8, 2, 0.25, true),
      make_recovery_region(RegionGeometry(2048, 1), ProtectionKind::Parity,
                           0.7, 1, 0.5, true),
      make_recovery_region(RegionGeometry(1024, 8), ProtectionKind::None, 0.6,
                           1, 0.25, false),
      make_recovery_region(RegionGeometry(1024, 0), ProtectionKind::None, 0.4,
                           1, 0.25, false),
      make_recovery_region(RegionGeometry(1024, 0), ProtectionKind::Immune,
                           1.0, 1, 0.0, false)};
  RecoveryPolicy policy;
  policy.recover = true;
  policy.scrub_interval = 128;
  const RecoveryUnderTest campaign(regions, model, policy);
  for (const std::uint64_t seed : {0x57a1ce5eedULL, 0x1234fedcULL}) {
    const CampaignConfig cfg = config_for(seed, 20'000);
    expect_recovery_equal(drive_recovery(campaign, cfg, true, {cfg.strikes}),
                          drive_recovery(campaign, cfg, false, {cfg.strikes}),
                          "mixed seed=" + std::to_string(seed));
  }
}

TEST(BatchEngineRecovery, ChunkScheduleNeverChangesCountersOrImages) {
  // Chunk cuts land mid-scrub-countdown; the batched loop must carry
  // the countdown, images, and RNG across cuts exactly like the
  // reference run in one piece.
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  RecoveryPolicy policy;
  policy.recover = true;
  policy.scrub_interval = 100;
  const RecoveryUnderTest campaign(
      {make_recovery_region(RegionGeometry(4096, 8), ProtectionKind::SecDed,
                            0.25, 1, 0.25, true)},
      model, policy);
  const CampaignConfig cfg = config_for(0x7a7aa77a, 15'000);
  const RecoveryRun want =
      drive_recovery(campaign, cfg, false, {cfg.strikes});
  const std::vector<std::vector<std::uint64_t>> schedules{
      {15'000},
      {1, 1, 1, 14'997},
      {99, 101, 14'800},  // cuts straddling the scrub countdown
      {5'000, 5'000, 5'000},
      {997, 4096, 15'000}};  // over-asking stops at config.strikes
  for (const auto& schedule : schedules) {
    expect_recovery_equal(
        drive_recovery(campaign, cfg, true, schedule), want,
        "schedule of " + std::to_string(schedule.size()) + " chunks");
  }
}

TEST(BatchEngineRecovery, GridCellsMatchReference) {
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  RecoveryPolicy policy;
  policy.recover = true;
  policy.scrub_interval = 512;
  const std::vector<RecoveryRegion> regions{
      make_recovery_region(RegionGeometry(4096, 8), ProtectionKind::SecDed,
                           0.5, 1, 0.25, true),
      make_recovery_region(RegionGeometry(4096, 1), ProtectionKind::Parity,
                           0.7, 1, 0.5, true)};
  const RecoveryUnderTest campaign(regions, model, policy);
  std::vector<InjectionRegion> surfaces;
  for (const RecoveryRegion& r : regions) surfaces.push_back(r.inject);
  SensitivityGrid batched_grid = make_sensitivity_grid(surfaces, 16);
  SensitivityGrid reference_grid = make_sensitivity_grid(surfaces, 16);
  const CampaignConfig cfg = config_for(0x5ca1ab1e, 20'000);
  expect_recovery_equal(
      drive_recovery(campaign, cfg, true, {cfg.strikes}, &batched_grid),
      drive_recovery(campaign, cfg, false, {cfg.strikes}, &reference_grid),
      "gridded recovery");
  EXPECT_EQ(batched_grid.to_csv(), reference_grid.to_csv());
}

TEST(BatchEngineRecovery, CountsPastOneLaneOfOneOutcome) {
  // Occupancy 0: no struck word is ever read, so every strike of a
  // single chunk is Masked.
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  RecoveryPolicy policy;
  policy.recover = true;
  const RecoveryUnderTest campaign(
      {make_recovery_region(RegionGeometry(4096, 8), ProtectionKind::SecDed,
                            0.0, 1, 0.25, false)},
      model, policy);
  const CampaignConfig cfg = config_for(0x0cc0, kPastOneLane);
  const RecoveryRun run = drive_recovery(campaign, cfg, true, {cfg.strikes});
  EXPECT_EQ(run.strikes.strikes, kPastOneLane);
  EXPECT_EQ(run.strikes.masked, kPastOneLane);
  expect_recovery_equal(run,
                        drive_recovery(campaign, cfg, false, {cfg.strikes}),
                        "occupancy 0");
}

TEST(BatchEngineRecovery, MatchesReferenceOverChunksPastOneLane) {
  // The recovery loop has no block width: one chunk longer than a
  // lane tallies every strike in one pass.
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  RecoveryPolicy policy;
  policy.recover = true;
  policy.scrub_interval = 1024;
  const RecoveryUnderTest campaign(
      {make_recovery_region(RegionGeometry(4096, 8), ProtectionKind::SecDed,
                            0.25, 1, 0.25, true),
       make_recovery_region(RegionGeometry(2048, 1), ProtectionKind::Parity,
                            0.5, 1, 0.5, true)},
      model, policy);
  const CampaignConfig cfg = config_for(0x1a7e, 2 * kPastOneLane + 7);
  expect_recovery_equal(drive_recovery(campaign, cfg, true, {cfg.strikes}),
                        drive_recovery(campaign, cfg, false, {cfg.strikes}),
                        "one chunk past a lane");
}

TEST(BatchEngineRecovery, MatchesReferenceAtExoticCheckWidths) {
  // Check widths the CLI never builds: SEC-DED with fewer or more check
  // bits than its 8-bit code reads, parity with check bits past its
  // one parity bit. Flips into check bits >= 8 drop out of the 8-bit
  // check plane, and flips into a parity word's extra check bits stay
  // unseen by the code yet keep its error pattern nonzero. A mix heavy
  // in multi-bit strikes makes runs reach those bits often.
  const StrikeMultiplicityModel model(0.4, 0.3, 0.2, 0.1);
  const struct {
    ProtectionKind protection;
    std::uint32_t check_bits;
  } widths[] = {{ProtectionKind::SecDed, 1},  {ProtectionKind::SecDed, 4},
                {ProtectionKind::SecDed, 8},  {ProtectionKind::SecDed, 12},
                {ProtectionKind::SecDed, 16}, {ProtectionKind::Parity, 1},
                {ProtectionKind::Parity, 4}};
  for (const auto& width : widths) {
    for (const std::uint32_t interleave : {1u, 2u}) {
      for (const bool recover : {true, false}) {
        RecoveryPolicy policy;
        policy.recover = recover;
        policy.scrub_interval = 64;
        const RecoveryUnderTest campaign(
            {make_recovery_region(RegionGeometry(1024, width.check_bits),
                                  width.protection, 0.5, interleave, 0.25,
                                  true)},
            model, policy);
        const CampaignConfig cfg = config_for(0xe207c, 6'000);
        expect_recovery_equal(
            drive_recovery(campaign, cfg, true, {2'500, 3'500}),
            drive_recovery(campaign, cfg, false, {cfg.strikes}),
            std::string(width.protection == ProtectionKind::SecDed
                            ? "secded"
                            : "parity") +
                " check bits " + std::to_string(width.check_bits) +
                " interleave " + std::to_string(interleave) +
                " recover=" + std::to_string(recover));
      }
    }
  }
}

TEST(BatchEngineRecovery, UnwrittenCorrectionsKeepTheirSyndrome) {
  // Demand repair off and no scrubbing: a corrected or miscorrected
  // word is never written back, so its error — and its cached
  // syndrome — stays in the array. drive_recovery checks the shadow
  // after every chunk; this pins that such words exist.
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  RecoveryPolicy policy;
  policy.recover = false;
  policy.scrub_interval = 0;
  const RecoveryUnderTest campaign(
      {make_recovery_region(RegionGeometry(4096, 8), ProtectionKind::SecDed,
                            1.0, 1, 0.25, false)},
      model, policy);
  const CampaignConfig cfg = config_for(0x5badc0de, 4'000);
  const RecoveryRun run =
      drive_recovery(campaign, cfg, true, {1'000, 1'000, 2'000});
  EXPECT_GT(run.strikes.dre, 0u);
  const std::vector<std::uint8_t>& syndrome = run.images[0].syndrome;
  EXPECT_GT(std::count_if(syndrome.begin(), syndrome.end(),
                          [](std::uint8_t s) { return s != 0; }),
            0);
  expect_recovery_equal(run,
                        drive_recovery(campaign, cfg, false, {cfg.strikes}),
                        "recover off, no scrub");
}

TEST(BatchEngineRecovery, RejectsCodedRegionsWithoutCheckBits) {
  // A parity or SEC-DED region needs a check plane to hold its code;
  // both the engine and its reference refuse one without.
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  RecoveryPolicy policy;
  policy.recover = true;
  policy.scrub_interval = 64;
  for (const ProtectionKind protection :
       {ProtectionKind::Parity, ProtectionKind::SecDed}) {
    const std::vector<RecoveryRegion> regions{make_recovery_region(
        RegionGeometry(1024, 0), protection, 0.5, 1, 0.25, true)};
    EXPECT_THROW(LiveArrayCampaign(regions, model, policy), InvalidArgument);
    EXPECT_THROW(RecoveryReference(regions, model, policy), InvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// Temporal: the batched run_chunk (system_campaign_batch.cpp) against
// TemporalReference (the ftspm_oracle target) over the case-study
// schedule — the only workload with real residency spans, unmap
// indices, and per-block ACE fractions.

struct TemporalFixture {
  Workload workload;
  ProgramProfile profile;
  StructureEvaluator evaluator;
  SystemResult system;

  TemporalFixture()
      : workload(make_case_study(CaseStudyTargets{}.scaled_down(8))),
        profile(profile_workload(workload)),
        system(evaluator.evaluate_ftspm(workload, profile)) {}
};

struct TemporalRun {
  CampaignResult strikes;
  std::uint64_t rng_probe = 0;
};

/// The batched engine and its reference, built from the same
/// arguments.
struct TemporalUnderTest {
  TemporalCampaign engine;
  TemporalReference reference;

  TemporalUnderTest(const SpmLayout& layout, const MappingPlan& plan,
                    const Program& program, const ProgramProfile& profile,
                    const StrikeMultiplicityModel& strikes)
      : engine(layout, plan, program, profile, strikes),
        reference(layout, plan, program, profile, strikes) {}
};

/// Drives the temporal campaign with the shard scratch's block width
/// set to `width`. The temporal engine tallies strike by strike and
/// has no blocks, so no width may change its counters either.
TemporalRun drive_temporal(const TemporalUnderTest& campaign,
                           const CampaignConfig& cfg, bool batched,
                           std::uint32_t width,
                           const std::vector<std::uint64_t>& schedule,
                           SensitivityGrid* grid = nullptr) {
  CampaignShardState state =
      begin_campaign_shard(cfg.seed ^ TemporalCampaign::kSeedSalt);
  state.scratch.batch.width = width;
  for (const std::uint64_t step : schedule) {
    if (batched)
      campaign.engine.run_chunk(cfg, state, step, grid);
    else
      campaign.reference.run_chunk(cfg, state, step, grid);
  }
  return TemporalRun{state.partial, state.rng.next_u64()};
}

TEST(BatchEngineTemporal, MatchesReferenceAcrossWidthsAndChunks) {
  // The FTSPM layout plus the pure-SRAM one: the engine's span table is
  // built once per campaign, and a layout with a different region mix
  // must flatten into the same first-match scan as the reference's.
  const TemporalFixture fix;
  const SystemResult pure_sram =
      fix.evaluator.evaluate_pure_sram(fix.workload, fix.profile);
  const struct {
    const char* name;
    const SpmLayout& layout;
    const MappingPlan& plan;
  } systems[] = {
      {"ftspm", fix.evaluator.ftspm_layout(), fix.system.plan},
      {"pure sram", fix.evaluator.pure_sram_layout(), pure_sram.plan}};
  for (const auto& system : systems) {
    SCOPED_TRACE(system.name);
    const TemporalUnderTest campaign(system.layout, system.plan,
                                     fix.workload.program, fix.profile,
                                     fix.evaluator.strike_model());
    for (const std::uint64_t seed : {0x57a1ce5eedULL, 0x1234fedcULL}) {
      const CampaignConfig cfg = config_for(seed, 25'000);
      const TemporalRun want =
          drive_temporal(campaign, cfg, false, 256, {cfg.strikes});
      for (const std::uint32_t width : {1u, 33u, 256u}) {
        const TemporalRun got =
            drive_temporal(campaign, cfg, true, width, {cfg.strikes});
        expect_equal(got.strikes, want.strikes,
                     ("temporal width " + std::to_string(width)).c_str());
        EXPECT_EQ(got.rng_probe, want.rng_probe) << "width " << width;
      }
      for (const std::vector<std::uint64_t>& schedule :
           std::vector<std::vector<std::uint64_t>>{{1, 1, 1, 24'997},
                                                   {997, 4096, 25'000},
                                                   {5'000, 5'000, 15'000}}) {
        const TemporalRun got =
            drive_temporal(campaign, cfg, true, 256, schedule);
        expect_equal(got.strikes, want.strikes, "temporal chunk schedule");
        EXPECT_EQ(got.rng_probe, want.rng_probe) << "chunk schedule";
      }
    }
  }
}

TEST(BatchEngineTemporal, GridCellsMatchReference) {
  const TemporalFixture fix;
  const TemporalUnderTest campaign(fix.evaluator.ftspm_layout(),
                                   fix.system.plan, fix.workload.program,
                                   fix.profile, fix.evaluator.strike_model());
  SensitivityGrid batched_grid =
      make_sensitivity_grid(campaign.engine.surfaces(), 16);
  SensitivityGrid reference_grid =
      make_sensitivity_grid(campaign.engine.surfaces(), 16);
  const CampaignConfig cfg = config_for(0x9e3779b9, 25'000);
  const TemporalRun batched =
      drive_temporal(campaign, cfg, true, 256, {cfg.strikes}, &batched_grid);
  const TemporalRun reference = drive_temporal(campaign, cfg, false, 256,
                                               {cfg.strikes}, &reference_grid);
  expect_equal(batched.strikes, reference.strikes, "gridded temporal");
  EXPECT_EQ(batched.rng_probe, reference.rng_probe);
  EXPECT_EQ(batched_grid.to_csv(), reference_grid.to_csv());
}

TEST(BatchEngineTemporal, CountsPastOneLaneOfOneOutcome) {
  // A plan that maps no block leaves no residency span, so every strike
  // is Masked.
  const TemporalFixture fix;
  std::vector<BlockMapping> none(fix.workload.program.block_count());
  for (std::size_t i = 0; i < none.size(); ++i)
    none[i] = BlockMapping{static_cast<BlockId>(i), kNoRegion,
                           MappingReason::TooLarge};
  const MappingPlan unmapped(fix.evaluator.ftspm_layout(), std::move(none));
  const TemporalUnderTest campaign(fix.evaluator.ftspm_layout(), unmapped,
                                   fix.workload.program, fix.profile,
                                   fix.evaluator.strike_model());
  const CampaignConfig cfg = config_for(0x7e3, kPastOneLane);
  for (const std::uint32_t width : kWideBlocks) {
    const TemporalRun run =
        drive_temporal(campaign, cfg, true, width, {cfg.strikes});
    EXPECT_EQ(run.strikes.strikes, kPastOneLane) << "width " << width;
    EXPECT_EQ(run.strikes.masked, kPastOneLane) << "width " << width;
  }
}

TEST(BatchEngineTemporal, MatchesReferenceAtBlockWidthsPastOneLane) {
  const TemporalFixture fix;
  const TemporalUnderTest campaign(fix.evaluator.ftspm_layout(),
                                   fix.system.plan, fix.workload.program,
                                   fix.profile, fix.evaluator.strike_model());
  const CampaignConfig cfg = config_for(0x57a1ce5eed, 2 * kPastOneLane + 7);
  const TemporalRun want =
      drive_temporal(campaign, cfg, false, 256, {cfg.strikes});
  for (const std::uint32_t width : kWideBlocks) {
    const TemporalRun got =
        drive_temporal(campaign, cfg, true, width, {cfg.strikes});
    expect_equal(got.strikes, want.strikes,
                 ("temporal width " + std::to_string(width)).c_str());
    EXPECT_EQ(got.rng_probe, want.rng_probe) << "width " << width;
  }
}

// ---------------------------------------------------------------------------
// Run-outcome tables. An uninterleaved strike flips a contiguous run
// of bits in each word it touches, so the static and temporal engines
// classify every word with one read of detail::run_outcome_table.

TEST(BatchEngineRunTable, EveryRunMatchesTheOracle) {
  // Every geometry the fast path accepts, every run that fits one of
  // its codewords, against the encode/flip/decode oracle on a
  // one-word region.
  const struct {
    ProtectionKind protection;
    std::uint32_t max_check_bits;
  } kinds[] = {{ProtectionKind::None, 8},
               {ProtectionKind::Parity, 1},
               {ProtectionKind::SecDed, 8}};
  std::uint64_t runs = 0;
  for (const auto& kind : kinds) {
    const RunOutcomeRow* run = detail::run_outcome_table(kind.protection);
    ASSERT_NE(run, nullptr);
    for (std::uint32_t check = 0; check <= kind.max_check_bits; ++check) {
      const InjectionRegion region{RegionGeometry(8, check), kind.protection,
                                   1.0, 1};
      const std::uint32_t cw = region.geometry.codeword_bits();
      for (std::uint32_t lo = 0; lo < cw; ++lo) {
        EXPECT_EQ(run[lo][0], static_cast<std::uint8_t>(StrikeOutcome::Masked));
        for (std::uint32_t len = 1; lo + len <= cw; ++len) {
          Rng rng(std::uint64_t{lo} * 131 + len);
          const StrikeOutcome want =
              classify_strike_oracle(region, lo, len, rng);
          EXPECT_EQ(run[lo][len], static_cast<std::uint8_t>(want))
              << to_string(want) << " protection "
              << static_cast<int>(kind.protection) << " check bits " << check
              << " run [" << lo << ", " << lo + len << ")";
          // The engines draw a fast strike's ACE Bernoulli without
          // looking at its verdict: that holds only if no run is Masked.
          EXPECT_NE(want, StrikeOutcome::Masked);
          ++runs;
        }
      }
    }
  }
  // None and SEC-DED at 9 codeword widths each, parity at 2.
  EXPECT_GT(runs, 40'000u);
  EXPECT_EQ(detail::run_outcome_table(ProtectionKind::Immune), nullptr);
}

TEST(BatchEngineRunTable, EverySyndromeRunMatchesTheFold) {
  // Every run of every codeword width a region can have, against the
  // codecs' own folds over the run's masks as the 8-bit check plane
  // holds them.
  for (const ProtectionKind protection :
       {ProtectionKind::Parity, ProtectionKind::SecDed}) {
    const detail::RunSyndromeRow* run = detail::run_syndrome_table(protection);
    ASSERT_NE(run, nullptr);
    for (std::uint32_t lo = 0; lo < detail::kRunSyndromeBits; ++lo) {
      for (std::uint32_t len = 0; lo + len <= detail::kRunSyndromeBits;
           ++len) {
        const detail::GroupMasks gm = detail::group_masks(lo, lo + len);
        const auto check = static_cast<std::uint8_t>(gm.check);
        std::uint8_t want = 0;
        if (protection == ProtectionKind::SecDed)
          SecDedCodec::fold_syndromes_scalar(&gm.data, &check, 1, &want);
        else
          ParityCodec::fold_parity(&gm.data, &check, 1, &want);
        EXPECT_EQ(run[lo][len], want)
            << "protection " << static_cast<int>(protection) << " run ["
            << lo << ", " << lo + len << ")";
      }
    }
  }
  EXPECT_EQ(detail::run_syndrome_table(ProtectionKind::None), nullptr);
  EXPECT_EQ(detail::run_syndrome_table(ProtectionKind::Immune), nullptr);
}

/// Mixes where every strike is a run the SEC-DED engines once parked
/// for a deferred syndrome fold: all 3-bit, and all in the >3-bit
/// coin-flip tail.
std::vector<std::pair<std::string, StrikeMultiplicityModel>>
multi_bit_models() {
  return {{"3-bit", StrikeMultiplicityModel(0.0, 0.0, 1.0, 0.0)},
          {"tail", StrikeMultiplicityModel(0.0, 0.0, 0.0, 1.0)}};
}

constexpr std::uint32_t kMultiBitWidths[] = {1u, 7u, 256u};

TEST(BatchEngineRunTable, StaticMatchesReferenceOnMultiBitRuns) {
  // The mixed surfaces plus an interleaved SEC-DED region, whose
  // multi-bit strikes take the general path; tight (no grid) and
  // recording (grid) modes alike.
  std::vector<InjectionRegion> regions = mixed_surfaces();
  regions.push_back({RegionGeometry(2048, 8), ProtectionKind::SecDed, 0.6, 2});
  for (const auto& [name, model] : multi_bit_models()) {
    const CampaignConfig cfg = config_for(0x3b175eed, 30'000);
    SensitivityGrid reference_grid = make_sensitivity_grid(regions, 16);
    const CampaignResult want =
        reference_campaign(regions, model, cfg, &reference_grid);
    // Miscorrected runs: the verdicts only a syndrome can tell.
    ASSERT_GT(want.sdc, 0u) << name;
    for (const std::uint32_t width : kMultiBitWidths) {
      for (const bool recording : {false, true}) {
        SensitivityGrid grid = make_sensitivity_grid(regions, 16);
        CampaignShardState state = begin_campaign_shard(cfg.seed);
        state.scratch.batch.width = width;
        run_campaign_chunk(regions, model, cfg, state, cfg.strikes,
                           recording ? &grid : nullptr);
        const std::string what = name + " width " + std::to_string(width) +
                                 (recording ? " recording" : " tight");
        expect_equal(state.partial, want, what.c_str());
        if (recording) {
          EXPECT_EQ(grid.to_csv(), reference_grid.to_csv()) << what;
        }
      }
    }
  }
}

TEST(BatchEngineRunTable, TemporalMatchesReferenceOnMultiBitRuns) {
  const TemporalFixture fix;
  for (const auto& [name, model] : multi_bit_models()) {
    const TemporalUnderTest campaign(fix.evaluator.ftspm_layout(),
                                     fix.system.plan, fix.workload.program,
                                     fix.profile, model);
    const CampaignConfig cfg = config_for(0x7e3b175e, 25'000);
    const TemporalRun want =
        drive_temporal(campaign, cfg, false, 256, {cfg.strikes});
    ASSERT_GT(want.strikes.dre + want.strikes.due + want.strikes.sdc, 0u)
        << name;
    for (const std::uint32_t width : kMultiBitWidths) {
      const TemporalRun got =
          drive_temporal(campaign, cfg, true, width, {cfg.strikes});
      const std::string what = name + " width " + std::to_string(width);
      expect_equal(got.strikes, want.strikes, what.c_str());
      EXPECT_EQ(got.rng_probe, want.rng_probe) << what;
    }
  }
}

}  // namespace
}  // namespace ftspm
