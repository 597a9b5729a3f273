#include "ftspm/fault/injector.h"

#include <gtest/gtest.h>

#include "ftspm/exec/parallel_campaign.h"
#include "ftspm/fault/avf.h"
#include "ftspm/util/error.h"

namespace ftspm {
namespace {

InjectionRegion make_region(ProtectionKind protection,
                            std::uint64_t data_bytes = 1024,
                            double ace = 1.0, std::uint32_t interleave = 1) {
  std::uint32_t check = 0;
  if (protection == ProtectionKind::Parity) check = 1;
  if (protection == ProtectionKind::SecDed) check = 8;
  return InjectionRegion{RegionGeometry(data_bytes, check), protection, ace,
                         interleave};
}

TEST(ClassifyStrikeTest, ImmuneRegionMasksEverything) {
  const InjectionRegion r = make_region(ProtectionKind::Immune);
  Rng rng(1);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(classify_strike(r, i * 13 % 512, 4, rng),
              StrikeOutcome::Masked);
}

TEST(ClassifyStrikeTest, UnprotectedSingleFlipIsSdc) {
  const InjectionRegion r = make_region(ProtectionKind::None);
  Rng rng(2);
  EXPECT_EQ(classify_strike(r, 17, 1, rng), StrikeOutcome::Sdc);
}

TEST(ClassifyStrikeTest, ParitySingleFlipIsDue) {
  const InjectionRegion r = make_region(ProtectionKind::Parity);
  Rng rng(3);
  for (std::uint64_t bit = 0; bit < 65; ++bit)
    EXPECT_EQ(classify_strike(r, bit, 1, rng), StrikeOutcome::Due);
}

TEST(ClassifyStrikeTest, ParityDoubleFlipSameWordIsSdcOrMasked) {
  // Two flips in one word restore parity: silent. (Both flips must
  // land in the same codeword — bits 0 and 1 of word 0.)
  const InjectionRegion r = make_region(ProtectionKind::Parity);
  Rng rng(4);
  const StrikeOutcome o = classify_strike(r, 0, 2, rng);
  EXPECT_TRUE(o == StrikeOutcome::Sdc || o == StrikeOutcome::Masked);
  EXPECT_EQ(o, StrikeOutcome::Sdc);  // data bits flipped -> corrupted
}

TEST(ClassifyStrikeTest, SecDedSingleFlipIsDre) {
  const InjectionRegion r = make_region(ProtectionKind::SecDed);
  Rng rng(5);
  for (std::uint64_t bit = 0; bit < 72; ++bit)
    EXPECT_EQ(classify_strike(r, bit, 1, rng), StrikeOutcome::Dre);
}

TEST(ClassifyStrikeTest, SecDedDoubleFlipSameWordIsDue) {
  const InjectionRegion r = make_region(ProtectionKind::SecDed);
  Rng rng(6);
  for (std::uint64_t start = 0; start < 70; ++start)
    EXPECT_EQ(classify_strike(r, start, 2, rng), StrikeOutcome::Due);
}

TEST(ClassifyStrikeTest, MbuStraddlingWordsSplitsIntoCorrectableErrors) {
  // Bits 71 and 72 are the last bit of word 0 and the first of word 1:
  // each word sees a single-bit error, so SEC-DED corrects both.
  const InjectionRegion r = make_region(ProtectionKind::SecDed);
  Rng rng(7);
  EXPECT_EQ(classify_strike(r, 71, 2, rng), StrikeOutcome::Dre);
}

TEST(ClassifyStrikeTest, InterleavingDefeatsMbus) {
  // With 4-way interleaving, a 4-bit adjacent MBU scatters into four
  // words, one flip each: fully corrected by SEC-DED.
  const InjectionRegion r =
      make_region(ProtectionKind::SecDed, 1024, 1.0, 4);
  Rng rng(8);
  for (std::uint64_t start = 0; start < 200; start += 7)
    EXPECT_EQ(classify_strike(r, start, 4, rng), StrikeOutcome::Dre);
}

TEST(ClassifyStrikeTest, WithoutInterleavingFourFlipsAreNotRecovered) {
  const InjectionRegion r = make_region(ProtectionKind::SecDed);
  Rng rng(9);
  // Four adjacent flips fully inside one codeword.
  const StrikeOutcome o = classify_strike(r, 8, 4, rng);
  EXPECT_NE(o, StrikeOutcome::Dre);
  EXPECT_NE(o, StrikeOutcome::Masked);
}

TEST(ClassifyStrikeTest, EdgeClippingIsSafe) {
  const InjectionRegion r = make_region(ProtectionKind::Parity, 16);  // 2 words
  Rng rng(10);
  // Strike at the very last physical bit with a large multiplicity.
  EXPECT_NO_THROW(classify_strike(r, r.geometry.physical_bits() - 1, 8, rng));
  EXPECT_THROW(classify_strike(r, r.geometry.physical_bits(), 1, rng),
               InvalidArgument);
  EXPECT_THROW(classify_strike(r, 0, 0, rng), InvalidArgument);
}

TEST(CampaignTest, DeterministicForFixedSeed) {
  const std::vector<InjectionRegion> regions{
      make_region(ProtectionKind::SecDed),
      make_region(ProtectionKind::Parity)};
  CampaignConfig cfg;
  cfg.strikes = 20'000;
  const CampaignResult a =
      run_campaign(regions, StrikeMultiplicityModel::at_40nm(), cfg);
  const CampaignResult b =
      run_campaign(regions, StrikeMultiplicityModel::at_40nm(), cfg);
  EXPECT_EQ(a.sdc, b.sdc);
  EXPECT_EQ(a.due, b.due);
  EXPECT_EQ(a.dre, b.dre);
  EXPECT_EQ(a.masked, b.masked);
}

TEST(CampaignTest, CountsSumToStrikes) {
  const std::vector<InjectionRegion> regions{
      make_region(ProtectionKind::SecDed)};
  CampaignConfig cfg;
  cfg.strikes = 10'000;
  const CampaignResult r =
      run_campaign(regions, StrikeMultiplicityModel::at_40nm(), cfg);
  EXPECT_EQ(r.masked + r.dre + r.due + r.sdc, r.strikes);
}

TEST(CampaignTest, ImmuneSurfaceIsFullyMasked) {
  const std::vector<InjectionRegion> regions{
      make_region(ProtectionKind::Immune)};
  CampaignConfig cfg;
  cfg.strikes = 5'000;
  const CampaignResult r =
      run_campaign(regions, StrikeMultiplicityModel::at_40nm(), cfg);
  EXPECT_EQ(r.masked, r.strikes);
  EXPECT_DOUBLE_EQ(r.vulnerability(), 0.0);
}

TEST(CampaignTest, AceOccupancyScalesHarm) {
  CampaignConfig cfg;
  cfg.strikes = 40'000;
  const CampaignResult full = run_campaign(
      {make_region(ProtectionKind::Parity, 1024, 1.0)},
      StrikeMultiplicityModel::at_40nm(), cfg);
  const CampaignResult half = run_campaign(
      {make_region(ProtectionKind::Parity, 1024, 0.5)},
      StrikeMultiplicityModel::at_40nm(), cfg);
  EXPECT_NEAR(half.vulnerability(), 0.5 * full.vulnerability(), 0.02);
}

TEST(CampaignTest, MonteCarloAgreesWithAnalyticSecDed) {
  // MC vs Eqs. (5)/(7) on a SEC-DED surface. The analytic model assumes
  // every multi-flip lands in one codeword; MC lets MBUs straddle
  // words, so measured DUE+SDC sits at or slightly below the analytic
  // value. With 72-bit codewords the straddle correction is a few
  // percent of strikes.
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  CampaignConfig cfg;
  cfg.strikes = 200'000;
  const CampaignResult mc =
      run_campaign({make_region(ProtectionKind::SecDed)}, model, cfg);
  const RegionErrorProbabilities analytic =
      region_error_probabilities(ProtectionKind::SecDed, model);
  EXPECT_LE(mc.vulnerability(), analytic.p_harmful() + 0.005);
  EXPECT_GT(mc.vulnerability(), analytic.p_harmful() * 0.80);
  // Single-flip correction dominates recoveries in both models.
  EXPECT_NEAR(mc.fraction(mc.dre), analytic.p_dre, 0.05);
}

TEST(CampaignTest, RegionsWeightedByPhysicalBits) {
  // A big immune region next to a tiny parity region: harm scales with
  // the parity region's share of physical bits.
  const InjectionRegion big = make_region(ProtectionKind::Immune, 7 * 1024);
  const InjectionRegion small = make_region(ProtectionKind::Parity, 1024);
  CampaignConfig cfg;
  cfg.strikes = 60'000;
  const CampaignResult r =
      run_campaign({big, small}, StrikeMultiplicityModel::at_40nm(), cfg);
  const double parity_share =
      static_cast<double>(small.geometry.physical_bits()) /
      (big.geometry.physical_bits() + small.geometry.physical_bits());
  EXPECT_NEAR(r.vulnerability(), parity_share, 0.01);
}

TEST(CampaignTest, RejectsBadInputs) {
  EXPECT_THROW(run_campaign({}, StrikeMultiplicityModel::at_40nm(), {}),
               InvalidArgument);
  InjectionRegion bad = make_region(ProtectionKind::Parity);
  bad.ace_occupancy = 1.5;
  EXPECT_THROW(run_campaign({bad}, StrikeMultiplicityModel::at_40nm(), {}),
               InvalidArgument);
  bad = make_region(ProtectionKind::Parity);
  bad.interleave = 0;
  EXPECT_THROW(run_campaign({bad}, StrikeMultiplicityModel::at_40nm(), {}),
               InvalidArgument);
}

TEST(StrikeOutcomeTest, ToString) {
  EXPECT_STREQ(to_string(StrikeOutcome::Masked), "masked");
  EXPECT_STREQ(to_string(StrikeOutcome::Dre), "DRE");
  EXPECT_STREQ(to_string(StrikeOutcome::Due), "DUE");
  EXPECT_STREQ(to_string(StrikeOutcome::Sdc), "SDC");
}

}  // namespace
}  // namespace ftspm
