// Property test: repeated_add(acc, c, k) against the k-add loop it
// replaces. The simulator sums cache energy with it, so it must match
// the loop bit for bit: from zero, across binade edges, on exact
// half-ulp ties, and where c is too small to move the sum at all.
#include "ftspm/util/repeated_add.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "ftspm/core/spm_config.h"
#include "ftspm/mem/technology_library.h"
#include "ftspm/util/error.h"
#include "ftspm/util/rng.h"

namespace ftspm {
namespace {

double loop_sum(double acc, double c, std::uint64_t k) {
  for (std::uint64_t i = 0; i < k; ++i) acc += c;
  return acc;
}

void expect_exact(double acc, double c, std::uint64_t k) {
  const double want = loop_sum(acc, c, k);
  const double got = repeated_add(acc, c, k);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << std::hexfloat << "acc " << acc << " c " << c << " k " << k
      << ": got " << got << ", loop " << want;
}

/// Unit in the last place of a positive normal double.
double ulp(double x) {
  return std::ldexp(1.0, std::ilogb(x) - std::numeric_limits<double>::digits +
                             1);
}

double configured_cache_energy() {
  return make_sim_config(TechnologyLibrary{}).cache_access_energy_pj;
}

TEST(RepeatedAddTest, FromZeroMatchesTheLoop) {
  for (const double c : {21.0, 0.1, configured_cache_energy(), 1.0 / 3.0,
                         1e-300, 3e300}) {
    for (const std::uint64_t k :
         {0ULL, 1ULL, 2ULL, 3ULL, 7ULL, 1000ULL, 123'457ULL, 2'000'000ULL})
      expect_exact(0.0, c, k);
  }
}

TEST(RepeatedAddTest, CountsThatCrossBinadeEdges) {
  // Start a few steps below a power of two, so the run crosses at least
  // one edge (and, for the small steps, stays long in the next binade).
  for (const int e : {-3, 0, 1, 10, 40, 52, 53, 54, 60}) {
    const double edge = std::ldexp(1.0, e);
    for (const double c : {21.0, 0.1, configured_cache_energy(),
                           ulp(edge) * 0.75, ulp(edge) * 5.3}) {
      for (const double below : {1.0, 3.0, 17.0}) {
        const double acc = edge - below * c;
        if (acc < 0.0) continue;
        expect_exact(acc, c, 1);
        expect_exact(acc, c, 5'000);
      }
    }
  }
}

TEST(RepeatedAddTest, EveryStartAndStepJustBelowAnEdge) {
  // The batch must stop exactly where the binade does: a start j ulps
  // below the edge and a step of s ulps (integral, fractional or a tie)
  // cover every room / step remainder near it.
  for (const double edge : {0x1p53, 0x1p1, 0x1p-20}) {
    const double u = ulp(edge / 2);
    for (int j = 1; j <= 40; ++j)
      for (const double s : {0.3, 0.6, 1.0, 1.3, 1.5, 2.0, 2.2, 2.5, 3.0,
                             3.7, 7.0, 10.6})
        expect_exact(edge - j * u, s * u, 60);
  }
}

TEST(RepeatedAddTest, ExactHalfUlpTies) {
  // In [2^53, 2^54) the ulp is 2: 1.0, 3.0 and 21.0 are all exactly
  // half an ulp off a multiple. From an odd-ulp acc the first add rounds
  // to even and the rest repeat that step; from an even acc every add
  // does.
  for (const double base : {0x1p53, 0x1p52, 0x1p60}) {
    const double u = ulp(base);
    for (const double m : {0.0, 1.0, 2.0, 10.0, 1000.0}) {
      const double c = (m + 0.5) * u;
      for (const double start : {0.0, 1.0, 2.0, 3.0, 101.0})
        for (const std::uint64_t k : {1ULL, 2ULL, 3ULL, 4'000ULL})
          expect_exact(base + start * u, c, k);
    }
  }
  expect_exact(0x1p53, 21.0, 1'000'000);
  // Ties in one binade, none in the next: [2^53, 2^54) has ulp 2, so
  // 21.0 ties; [2^54, 2^55) has ulp 4, where it does not.
  expect_exact(0x1p54 - 21.0 * 500, 21.0, 2'000);
}

TEST(RepeatedAddTest, SaturatesWhenTheStepRoundsAway) {
  // c below half an ulp, or an exact half-ulp tie on an even acc: the
  // loop's sum never moves again. No step of zero may be divided by.
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 62;
  for (const double acc : {0x1p60, 0x1p60 + 256.0, 1e300}) {
    for (const double c : {1.0, ulp(acc) / 4, ulp(acc) / 2}) {
      expect_exact(acc, c, 1'000);
      if (std::fmod(acc / ulp(acc), 2.0) == 0.0) {
        EXPECT_EQ(repeated_add(acc, c, kHuge), acc);
      }
    }
  }
  EXPECT_EQ(repeated_add(5.0, 0.0, kHuge), 5.0);
  EXPECT_EQ(repeated_add(0.0, 0.0, kHuge), 0.0);
  // The odd-acc tie moves once to even, then stays.
  expect_exact(0x1p60 + 256.0, 128.0, 1'000);
}

TEST(RepeatedAddTest, HugeCountsStayExact) {
  // Every partial sum of 21 * j below 2^53 is exact, so the loop's
  // result is the product; batching must reach it without walking.
  EXPECT_EQ(repeated_add(0.0, 21.0, std::uint64_t{1} << 40),
            21.0 * 0x1p40);
  // Splitting a count anywhere gives the same sum, as it does for the
  // loop.
  const double c = configured_cache_energy();
  const std::uint64_t k = std::uint64_t{1} << 50;
  EXPECT_EQ(repeated_add(repeated_add(0.0, c, k / 3), c, k - k / 3),
            repeated_add(0.0, c, k));
}

TEST(RepeatedAddTest, SubnormalsAndNegativeTerms) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  expect_exact(0.0, tiny * 3, 100'000);
  expect_exact(std::numeric_limits<double>::min() - tiny * 1000, tiny * 7,
               500);
  expect_exact(0.0, -0.1, 100'000);
  expect_exact(-3.0, -21.0, 1'000);
  expect_exact(-0.0, -0.0, 10);
  expect_exact(-0.0, 1.5, 10);
}

TEST(RepeatedAddTest, RandomStartsStepsAndCounts) {
  Rng rng(0x5eed'ad0e);
  for (int i = 0; i < 3'000; ++i) {
    // acc spans many binades; c is acc scaled down by up to 2^60, and
    // a quarter of the time an exact half-ulp tie of acc's binade.
    const double acc =
        rng.next_below(8) == 0
            ? 0.0
            : std::ldexp(1.0 + rng.next_double(),
                         static_cast<int>(rng.next_below(200)) - 100);
    double c = std::ldexp(1.0 + rng.next_double(),
                          static_cast<int>(rng.next_below(61)) - 60) *
               (acc == 0.0 ? 1.0 : acc);
    if (acc != 0.0 && rng.next_below(4) == 0)
      c = (static_cast<double>(rng.next_below(64)) + 0.5) * ulp(acc);
    expect_exact(acc, c, rng.next_below(4'000));
  }
}

TEST(RepeatedAddTest, RejectsMixedSignsAndNan) {
  EXPECT_THROW(repeated_add(1.0, -1.0, 3), InvalidArgument);
  EXPECT_THROW(repeated_add(-1.0, 1.0, 3), InvalidArgument);
  EXPECT_THROW(repeated_add(std::nan(""), 1.0, 3), InvalidArgument);
  EXPECT_THROW(repeated_add(1.0, std::nan(""), 3), InvalidArgument);
}

}  // namespace
}  // namespace ftspm
