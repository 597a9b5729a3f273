// Campaign golden counters at two fixed seeds, captured from the
// pre-syndrome-kernel implementation (encode/flip/decode per strike).
// The kernel rewrite promised bit-identical results — these tests hold
// it to that: any change to the RNG draw order, the classifier, or the
// recovery pipeline that shifts a single counter fails here. If a
// *deliberate* model change invalidates them, recapture the numbers
// and say so in the commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ftspm/core/system_campaign.h"
#include "ftspm/core/systems.h"
#include "ftspm/ecc/secded_codec.h"
#include "ftspm/fault/injector.h"
#include "ftspm/fault/recovery.h"
#include "ftspm/mem/technology_library.h"
#include "ftspm/oracle/strike_oracle.h"
#include "ftspm/workload/case_study.h"

namespace ftspm {
namespace {

constexpr std::uint64_t kSeedA = 0x57a1ce5eedULL;  // library default
constexpr std::uint64_t kSeedB = 0x1234fedcULL;

struct Golden {
  std::uint64_t masked, dre, due, sdc;
};

void expect_counts(const CampaignResult& r, std::uint64_t strikes,
                   const Golden& g) {
  EXPECT_EQ(r.strikes, strikes);
  EXPECT_EQ(r.masked, g.masked);
  EXPECT_EQ(r.dre, g.dre);
  EXPECT_EQ(r.due, g.due);
  EXPECT_EQ(r.sdc, g.sdc);
}

CampaignConfig config_for(std::uint64_t seed, std::uint64_t strikes) {
  CampaignConfig cfg;
  cfg.seed = seed;
  cfg.strikes = strikes;
  return cfg;
}

TEST(CampaignGolden, StaticSecDedSurface) {
  const InjectionRegion region{RegionGeometry(8192, 8), ProtectionKind::SecDed,
                               0.8, 1};
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  expect_counts(run_campaign({region}, model, config_for(kSeedA, 200'000)),
                200'000, {39784, 99820, 50879, 9517});
  expect_counts(run_campaign({region}, model, config_for(kSeedB, 200'000)),
                200'000, {39711, 100020, 50753, 9516});
}

TEST(CampaignGolden, StaticMixedSurfaces) {
  const std::vector<InjectionRegion> regions{
      {RegionGeometry(8192, 8), ProtectionKind::SecDed, 0.9, 1},
      {RegionGeometry(8192, 1), ProtectionKind::Parity, 0.7, 1},
      {RegionGeometry(2048, 0), ProtectionKind::None, 0.4, 1},
      {RegionGeometry(2048, 0), ProtectionKind::Immune, 1.0, 1}};
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  expect_counts(run_campaign(regions, model, config_for(kSeedA, 200'000)),
                200'000, {61866, 47912, 62273, 27949});
  expect_counts(run_campaign(regions, model, config_for(kSeedB, 200'000)),
                200'000, {62043, 48020, 62235, 27702});
}

TEST(CampaignGolden, InterleavedParityAndUnprotectedSurfaces) {
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  const InjectionRegion parity{RegionGeometry(8192, 1), ProtectionKind::Parity,
                               1.0, 2};
  expect_counts(run_campaign({parity}, model, config_for(kSeedA, 200'000)),
                200'000, {0, 0, 175920, 24080});
  const InjectionRegion none{RegionGeometry(4096, 0), ProtectionKind::None,
                             0.5, 1};
  expect_counts(run_campaign({none}, model, config_for(kSeedA, 200'000)),
                200'000, {99702, 0, 0, 100298});
}

RecoveryResult run_golden_recovery(std::uint64_t seed) {
  const TechnologyLibrary lib;
  RecoveryRegion region;
  region.inject =
      InjectionRegion{RegionGeometry(8192, 8), ProtectionKind::SecDed, 0.25, 1};
  region.tech = lib.secded_sram();
  region.dirty_fraction = 0.25;
  region.refetch_words = 64;
  region.scrub = true;
  RecoveryPolicy policy;
  policy.recover = true;
  policy.scrub_interval = 2048;
  return run_recovery_campaign({region}, StrikeMultiplicityModel::at_40nm(),
                               config_for(seed, 60'000), policy);
}

void expect_golden_recovery_a(const RecoveryResult& r) {
  expect_counts(r.strikes, 60'000, {44831, 10221, 1791, 3157});
  EXPECT_EQ(r.recovery.demand_reads, 15215u);
  EXPECT_EQ(r.recovery.corrections, 4911u);
  EXPECT_EQ(r.recovery.scrub_passes, 29u);
  EXPECT_EQ(r.recovery.scrub_words, 29696u);
  EXPECT_EQ(r.recovery.scrub_corrections, 5392u);
  EXPECT_EQ(r.recovery.refetches, 12575u);
  EXPECT_EQ(r.recovery.unrecoverable, 4199u);
  EXPECT_EQ(r.recovery.sdc_reads, 3159u);
  EXPECT_EQ(r.recovery.recovery_cycles, 2156526u);
  EXPECT_NEAR(r.recovery.recovery_energy_pj, 95037390.5, 1e-3);
}

TEST(CampaignGolden, RecoveryCampaignSeedA) {
  expect_golden_recovery_a(run_golden_recovery(kSeedA));
}

TEST(CampaignGolden, RecoveryCampaignSeedB) {
  const RecoveryResult r = run_golden_recovery(kSeedB);
  expect_counts(r.strikes, 60'000, {44823, 10214, 1818, 3145});
  EXPECT_EQ(r.recovery.demand_reads, 15228u);
  EXPECT_EQ(r.recovery.corrections, 4908u);
  EXPECT_EQ(r.recovery.scrub_passes, 29u);
  EXPECT_EQ(r.recovery.scrub_words, 29696u);
  EXPECT_EQ(r.recovery.scrub_corrections, 5407u);
  EXPECT_EQ(r.recovery.refetches, 12614u);
  EXPECT_EQ(r.recovery.unrecoverable, 4327u);
  EXPECT_EQ(r.recovery.sdc_reads, 3145u);
  EXPECT_EQ(r.recovery.recovery_cycles, 2162890u);
  EXPECT_NEAR(r.recovery.recovery_energy_pj, 95327750.5, 1e-3);
}

TEST(CampaignGolden, TemporalCaseStudyCampaign) {
  const Workload w = make_case_study(CaseStudyTargets{}.scaled_down(8));
  const ProgramProfile prof = profile_workload(w);
  const StructureEvaluator evaluator;
  const SystemResult sys = evaluator.evaluate_ftspm(w, prof);
  const auto run = [&](std::uint64_t seed) {
    return run_temporal_campaign(evaluator.ftspm_layout(), sys.plan, w.program,
                                 prof, evaluator.strike_model(),
                                 config_for(seed, 50'000));
  };
  expect_counts(run(kSeedA), 50'000, {47129, 1771, 946, 154});
  expect_counts(run(kSeedB), 50'000, {47192, 1731, 909, 168});
}

// The recovery campaign folds syndromes through the batched entry
// points, so its golden gets a backend sweep: every fold kernel the
// host offers must land exactly on the numbers pinned above. The
// temporal golden rides along; its run-outcome tables fold nothing, so
// no backend may move it. The FTSPM_DISABLE_SIMD CI leg runs the
// scalar iteration of this test, keeping both code paths pinned.
TEST(CampaignGolden, RecoveryAndTemporalGoldensAcrossFoldBackends) {
  const Workload w = make_case_study(CaseStudyTargets{}.scaled_down(8));
  const ProgramProfile prof = profile_workload(w);
  const StructureEvaluator evaluator;
  const SystemResult sys = evaluator.evaluate_ftspm(w, prof);
  for (const char* backend : {"scalar", "ssse3", "avx2"}) {
    if (!SecDedCodec::set_fold_backend(backend)) continue;  // CPU lacks it
    SCOPED_TRACE(backend);
    expect_golden_recovery_a(run_golden_recovery(kSeedA));
    expect_counts(
        run_temporal_campaign(evaluator.ftspm_layout(), sys.plan, w.program,
                              prof, evaluator.strike_model(),
                              config_for(kSeedA, 50'000)),
        50'000, {47129, 1771, 946, 154});
  }
  EXPECT_TRUE(SecDedCodec::set_fold_backend("auto"));
}

// SecDedCodec::fold_syndromes dispatches to AVX2/SSSE3/scalar kernels
// at runtime. The static engine classifies its SEC-DED runs from the
// run-outcome tables, not through the fold, so its counters must not
// depend on which kernel the process selected: every backend the host
// CPU offers has to land exactly on the golden numbers above. An
// FTSPM_DISABLE_SIMD build runs the scalar leg of this same test.
TEST(CampaignGolden, ScalarAndSimdFoldPathsHitTheSameGoldens) {
  const std::vector<InjectionRegion> regions{
      {RegionGeometry(8192, 8), ProtectionKind::SecDed, 0.9, 1},
      {RegionGeometry(8192, 1), ProtectionKind::Parity, 0.7, 1},
      {RegionGeometry(2048, 0), ProtectionKind::None, 0.4, 1},
      {RegionGeometry(2048, 0), ProtectionKind::Immune, 1.0, 1}};
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  for (const char* backend : {"scalar", "ssse3", "avx2"}) {
    if (!SecDedCodec::set_fold_backend(backend)) continue;  // CPU lacks it
    SCOPED_TRACE(backend);
    expect_counts(run_campaign(regions, model, config_for(kSeedA, 200'000)),
                  200'000, {61866, 47912, 62273, 27949});
    expect_counts(run_campaign(regions, model, config_for(kSeedB, 200'000)),
                  200'000, {62043, 48020, 62235, 27702});
  }
  EXPECT_TRUE(SecDedCodec::set_fold_backend("auto"));
}

// The scratch-carrying classifier overload, the convenience overload,
// and the oracle agree strike for strike — and consume the RNG
// identically, which is what keeps the goldens above stable.
TEST(CampaignGolden, KernelAndOracleClassifiersAgree) {
  const InjectionRegion region{RegionGeometry(512, 8), ProtectionKind::SecDed,
                               1.0, 2};
  const std::uint64_t bits = region.geometry.physical_bits();
  Rng kernel_rng(99), plain_rng(99), oracle_rng(99);
  CampaignScratch scratch;
  for (std::uint64_t s = 0; s < 4096; ++s) {
    const std::uint64_t origin = (s * 8191) % bits;
    const auto flips = static_cast<std::uint32_t>(1 + (s % 6));
    const StrikeOutcome kernel =
        classify_strike(region, origin, flips, kernel_rng, scratch);
    const StrikeOutcome plain =
        classify_strike(region, origin, flips, plain_rng);
    const StrikeOutcome oracle =
        classify_strike_oracle(region, origin, flips, oracle_rng);
    ASSERT_EQ(kernel, oracle) << "origin=" << origin << " flips=" << flips;
    ASSERT_EQ(plain, oracle) << "origin=" << origin << " flips=" << flips;
    const std::uint64_t k = kernel_rng.next_u64();
    const std::uint64_t p = plain_rng.next_u64();
    const std::uint64_t o = oracle_rng.next_u64();
    ASSERT_EQ(k, o) << "RNG streams diverged at strike " << s;
    ASSERT_EQ(p, o) << "RNG streams diverged at strike " << s;
  }
}

}  // namespace
}  // namespace ftspm
