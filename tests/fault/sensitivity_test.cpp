// SensitivityGrid: bucket math, merge determinism, CSV round trips,
// and the invariant the report toolchain leans on — a recorded grid's
// totals equal the campaign counters exactly.
#include "ftspm/fault/sensitivity.h"

#include <gtest/gtest.h>

#include <vector>

#include "ftspm/exec/parallel_campaign.h"
#include "ftspm/fault/injector.h"
#include "ftspm/fault/strike_model.h"
#include "ftspm/mem/technology.h"
#include "ftspm/obs/metrics.h"
#include "ftspm/util/error.h"

namespace ftspm {
namespace {

InjectionRegion make_region(ProtectionKind protection,
                            std::uint64_t data_bytes = 1024) {
  std::uint32_t check = 0;
  if (protection == ProtectionKind::Parity) check = 1;
  if (protection == ProtectionKind::SecDed) check = 8;
  return InjectionRegion{RegionGeometry(data_bytes, check), protection, 1.0,
                         1};
}

SensitivityGrid small_grid(std::uint32_t buckets = 4) {
  return SensitivityGrid(
      {SensitivityGrid::RegionSpec{"dspm", "secded", 100},
       SensitivityGrid::RegionSpec{"ispm", "parity", 64}},
      buckets);
}

TEST(SensitivityGridTest, DefaultConstructedIsInactive) {
  const SensitivityGrid grid;
  EXPECT_FALSE(grid.active());
  EXPECT_EQ(grid.buckets(), 0u);
  EXPECT_EQ(grid.region_count(), 0u);
}

TEST(SensitivityGridTest, ConstructorValidatesGeometry) {
  using Spec = SensitivityGrid::RegionSpec;
  EXPECT_THROW(SensitivityGrid({Spec{"r", "none", 8}}, 0), Error);
  EXPECT_THROW(SensitivityGrid({}, 4), Error);
  EXPECT_THROW(SensitivityGrid({Spec{"r", "none", 0}}, 4), Error);
}

TEST(SensitivityGridTest, BucketOfUsesExactIntegerMath) {
  const SensitivityGrid grid = small_grid(4);
  // Region 0 has 100 bits over 4 buckets: boundaries at 25/50/75.
  EXPECT_EQ(grid.bucket_of(0, 0), 0u);
  EXPECT_EQ(grid.bucket_of(0, 24), 0u);
  EXPECT_EQ(grid.bucket_of(0, 25), 1u);
  EXPECT_EQ(grid.bucket_of(0, 49), 1u);
  EXPECT_EQ(grid.bucket_of(0, 50), 2u);
  EXPECT_EQ(grid.bucket_of(0, 75), 3u);
  EXPECT_EQ(grid.bucket_of(0, 99), 3u);
  // Out-of-surface bits clamp into the last bucket rather than run off
  // the array.
  EXPECT_EQ(grid.bucket_of(0, 100), 3u);
  // Region 1 has 64 bits: an exact 16-bit split.
  EXPECT_EQ(grid.bucket_of(1, 15), 0u);
  EXPECT_EQ(grid.bucket_of(1, 16), 1u);
  EXPECT_EQ(grid.bucket_of(1, 63), 3u);
}

TEST(SensitivityGridTest, RecordAccumulatesPerCellAndPerOutcome) {
  SensitivityGrid grid = small_grid(4);
  grid.record(0, 3, StrikeOutcome::Sdc);
  grid.record(0, 3, StrikeOutcome::Sdc);
  grid.record(0, 30, StrikeOutcome::Masked);
  grid.record(1, 60, StrikeOutcome::Due);
  EXPECT_EQ(grid.count(0, 0, StrikeOutcome::Sdc), 2u);
  EXPECT_EQ(grid.count(0, 1, StrikeOutcome::Masked), 1u);
  EXPECT_EQ(grid.count(1, 3, StrikeOutcome::Due), 1u);
  EXPECT_EQ(grid.bucket_strikes(0, 0), 2u);
  EXPECT_EQ(grid.bucket_strikes(0, 1), 1u);
  EXPECT_EQ(grid.bucket_strikes(1, 0), 0u);

  const CampaignResult r0 = grid.region_totals(0);
  EXPECT_EQ(r0.strikes, 3u);
  EXPECT_EQ(r0.sdc, 2u);
  EXPECT_EQ(r0.masked, 1u);
  const CampaignResult all = grid.totals();
  EXPECT_EQ(all.strikes, 4u);
  EXPECT_EQ(all.due, 1u);
}

TEST(SensitivityGridTest, MergeFromMatchesSerialRecording) {
  SensitivityGrid serial = small_grid();
  SensitivityGrid shard_a = small_grid();
  SensitivityGrid shard_b = small_grid();
  const struct {
    std::size_t region;
    std::uint64_t bit;
    StrikeOutcome outcome;
  } strikes[] = {
      {0, 5, StrikeOutcome::Masked}, {0, 80, StrikeOutcome::Sdc},
      {1, 2, StrikeOutcome::Due},    {0, 5, StrikeOutcome::Dre},
      {1, 63, StrikeOutcome::Masked},
  };
  int i = 0;
  for (const auto& s : strikes) {
    serial.record(s.region, s.bit, s.outcome);
    (i++ % 2 == 0 ? shard_a : shard_b).record(s.region, s.bit, s.outcome);
  }
  shard_a.merge_from(shard_b);
  EXPECT_EQ(shard_a.to_csv(), serial.to_csv());
}

TEST(SensitivityGridTest, MergeFromRejectsMismatchedGeometry) {
  SensitivityGrid grid = small_grid(4);
  SensitivityGrid other_buckets = small_grid(8);
  EXPECT_THROW(grid.merge_from(other_buckets), Error);
  SensitivityGrid other_region(
      {SensitivityGrid::RegionSpec{"dspm", "secded", 100},
       SensitivityGrid::RegionSpec{"ispm", "parity", 65}},
      4);
  EXPECT_THROW(grid.merge_from(other_region), Error);
  EXPECT_THROW(grid.merge_from(SensitivityGrid()), Error);
}

TEST(SensitivityGridTest, CsvRoundTripsByteIdentically) {
  SensitivityGrid grid = small_grid(4);
  grid.record(0, 10, StrikeOutcome::Sdc);
  grid.record(0, 99, StrikeOutcome::Dre);
  grid.record(1, 0, StrikeOutcome::Due);
  const std::string csv = grid.to_csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "region,label,protection,bucket,first_bit,last_bit,strikes,"
            "masked,dre,due,sdc");
  const SensitivityGrid parsed = SensitivityGrid::from_csv(csv);
  EXPECT_EQ(parsed.to_csv(), csv);
  EXPECT_EQ(parsed.buckets(), grid.buckets());
  EXPECT_EQ(parsed.region_count(), grid.region_count());
  EXPECT_EQ(parsed.regions()[0].label, "dspm");
  EXPECT_EQ(parsed.regions()[0].protection, "secded");
  EXPECT_EQ(parsed.regions()[0].physical_bits, 100u);
  EXPECT_EQ(parsed.count(0, 0, StrikeOutcome::Sdc), 1u);
}

TEST(SensitivityGridTest, FromCsvRejectsMalformedDocuments) {
  EXPECT_THROW(SensitivityGrid::from_csv(""), Error);
  EXPECT_THROW(SensitivityGrid::from_csv("not,a,grid\n1,2,3\n"), Error);
  const std::string header =
      "region,label,protection,bucket,first_bit,last_bit,strikes,masked,"
      "dre,due,sdc\n";
  // Header only: no rows.
  EXPECT_THROW(SensitivityGrid::from_csv(header), Error);
  // Outcome counts that do not sum to the strikes column.
  EXPECT_THROW(
      SensitivityGrid::from_csv(header + "0,r0,none,0,0,63,5,1,1,1,1\n"),
      Error);
  // Non-numeric count.
  EXPECT_THROW(
      SensitivityGrid::from_csv(header + "0,r0,none,0,0,63,x,0,0,0,0\n"),
      Error);
  // Region appearing mid-document (not region-major).
  EXPECT_THROW(SensitivityGrid::from_csv(header +
                                         "0,r0,none,0,0,31,0,0,0,0,0\n"
                                         "1,r1,none,1,32,63,0,0,0,0,0\n"),
               Error);
}

TEST(SensitivityGridTest, MakeGridFromInjectionRegions) {
  const std::vector<InjectionRegion> regions = {
      make_region(ProtectionKind::SecDed),
      make_region(ProtectionKind::Parity)};
  const SensitivityGrid grid = make_sensitivity_grid(regions, 8);
  ASSERT_TRUE(grid.active());
  ASSERT_EQ(grid.region_count(), 2u);
  EXPECT_EQ(grid.regions()[0].label, "r0");
  EXPECT_EQ(grid.regions()[1].label, "r1");
  EXPECT_EQ(grid.regions()[0].protection,
            to_string(ProtectionKind::SecDed));
  EXPECT_EQ(grid.regions()[0].physical_bits,
            regions[0].geometry.physical_bits());

  const SensitivityGrid named =
      make_sensitivity_grid(regions, 8, {"dspm", "ispm"});
  EXPECT_EQ(named.regions()[0].label, "dspm");
  EXPECT_EQ(named.regions()[1].label, "ispm");
  EXPECT_THROW(make_sensitivity_grid(regions, 8, {"only-one"}), Error);
}

TEST(SensitivityCampaignTest, GridTotalsEqualCampaignCounters) {
  const std::vector<InjectionRegion> regions = {
      make_region(ProtectionKind::SecDed),
      make_region(ProtectionKind::Parity, 512)};
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  CampaignConfig config;
  config.strikes = 2000;
  config.seed = 0xfeedface;

  SensitivityGrid grid = make_sensitivity_grid(regions, 16);
  const CampaignResult with_grid =
      run_campaign(regions, model, config, &grid);
  const CampaignResult without = run_campaign(regions, model, config);

  // Recording never perturbs the campaign.
  EXPECT_EQ(with_grid.strikes, without.strikes);
  EXPECT_EQ(with_grid.masked, without.masked);
  EXPECT_EQ(with_grid.dre, without.dre);
  EXPECT_EQ(with_grid.due, without.due);
  EXPECT_EQ(with_grid.sdc, without.sdc);

  // Every strike landed in exactly one cell.
  const CampaignResult totals = grid.totals();
  EXPECT_EQ(totals.strikes, with_grid.strikes);
  EXPECT_EQ(totals.masked, with_grid.masked);
  EXPECT_EQ(totals.dre, with_grid.dre);
  EXPECT_EQ(totals.due, with_grid.due);
  EXPECT_EQ(totals.sdc, with_grid.sdc);
}

TEST(SensitivityCampaignTest, ChunkedRecordingMatchesSerial) {
  const std::vector<InjectionRegion> regions = {
      make_region(ProtectionKind::SecDed)};
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  CampaignConfig config;
  config.strikes = 1000;
  config.seed = 42;

  SensitivityGrid serial = make_sensitivity_grid(regions, 8);
  run_campaign(regions, model, config, &serial);

  SensitivityGrid chunked = make_sensitivity_grid(regions, 8);
  CampaignShardState state = begin_campaign_shard(config.seed);
  while (state.done < config.strikes)
    run_campaign_chunk(regions, model, config, state, 137, &chunked);
  EXPECT_EQ(chunked.to_csv(), serial.to_csv());
}

TEST(SensitivityMetricsTest, EmitFoldsGridIntoLabelledRegistry) {
  SensitivityGrid grid = small_grid(2);
  grid.record(0, 10, StrikeOutcome::Sdc);
  grid.record(0, 10, StrikeOutcome::Sdc);
  grid.record(0, 90, StrikeOutcome::Masked);
  grid.record(1, 1, StrikeOutcome::Due);

  obs::registry().clear();
  const obs::EnabledScope scoped(true);
  emit_sensitivity_metrics(grid, "static");
  obs::Registry& reg = obs::registry();
  EXPECT_EQ(reg.counter("campaign.outcome",
                        obs::LabelSet{{"region", "dspm"},
                                      {"ecc", "secded"},
                                      {"outcome", "sdc"},
                                      {"phase", "static"}})
                .value(),
            2u);
  EXPECT_EQ(reg.counter("campaign.outcome",
                        obs::LabelSet{{"region", "ispm"},
                                      {"ecc", "parity"},
                                      {"outcome", "due"},
                                      {"phase", "static"}})
                .value(),
            1u);
  // Every bucket is observed, including empty ones.
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("campaign.bucket_strikes"), std::string::npos);
  obs::registry().clear();
}

TEST(SensitivityMetricsTest, EmitIsANoOpWhenDisabledOrInactive) {
  obs::registry().clear();
  // Disabled observability: nothing reaches the registry.
  emit_sensitivity_metrics(small_grid(), "static");
  EXPECT_EQ(obs::registry().size(), 0u);
  // Inactive grid under enabled observability: also nothing.
  const obs::EnabledScope scoped(true);
  emit_sensitivity_metrics(SensitivityGrid(), "static");
  EXPECT_EQ(obs::registry().size(), 0u);
}

}  // namespace
}  // namespace ftspm
