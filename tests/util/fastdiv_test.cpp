// FastDiv64 against the hardware divide at the dividends where a
// reciprocal multiply goes wrong first: around every multiple of the
// divisor near zero and near the declared dividend bound, on both the
// multiply path and the hardware-divide fallback.
#include "ftspm/util/fastdiv.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ftspm/util/error.h"

namespace ftspm {
namespace {

constexpr std::uint64_t kDivisors[] = {1,
                                       2,
                                       3,
                                       64,
                                       72,
                                       73,
                                       (std::uint64_t{1} << 32) + 1,
                                       std::uint64_t{1} << 63,
                                       UINT64_MAX};

/// 0, d - 1, d, d + 1, k*d - 1, k*d, k*d + 1 for small k and for the
/// largest k with k*d within the bound, and the bound itself; only
/// dividends in [0, max_dividend] are kept.
std::vector<std::uint64_t> boundary_dividends(std::uint64_t d,
                                              std::uint64_t max_dividend) {
  std::vector<__uint128_t> wide{0, max_dividend,
                                __uint128_t{max_dividend} - 1};
  const std::uint64_t top = max_dividend / d;
  for (const std::uint64_t k :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{7},
        std::uint64_t{1000}, top - 1, top}) {
    const __uint128_t m = __uint128_t{k} * d;
    wide.push_back(m - 1);
    wide.push_back(m);
    wide.push_back(m + 1);
  }
  std::vector<std::uint64_t> out;
  for (const __uint128_t n : wide)
    if (n <= max_dividend) out.push_back(static_cast<std::uint64_t>(n));
  return out;
}

void expect_exact(const FastDiv64& div, std::uint64_t max_dividend) {
  const std::uint64_t d = div.divisor();
  for (const std::uint64_t n : boundary_dividends(d, max_dividend))
    EXPECT_EQ(div.divide(n), n / d)
        << n << " / " << d << " (bound " << max_dividend
        << (div.exact_multiply() ? ", multiply)" : ", hardware divide)");
}

TEST(FastDiv64Test, DividesExactlyAtTheBoundaries) {
  // A realistic surface bound (2^57 bits) and no bound at all.
  for (const std::uint64_t bound :
       {std::uint64_t{1} << 57, std::uint64_t{UINT64_MAX}})
    for (const std::uint64_t d : kDivisors)
      expect_exact(FastDiv64(d, bound), bound);
}

TEST(FastDiv64Test, TakesTheMultiplyPathOnlyWhenItIsProvenExact) {
  const auto multiply = [](std::uint64_t d, std::uint64_t bound) {
    return FastDiv64(d, bound).exact_multiply();
  };
  // Powers of two have no reciprocal error: any bound qualifies.
  EXPECT_TRUE(multiply(2, UINT64_MAX));
  EXPECT_TRUE(multiply(64, UINT64_MAX));
  EXPECT_TRUE(multiply(std::uint64_t{1} << 63, UINT64_MAX));
  // Codeword widths against realistic surfaces qualify.
  EXPECT_TRUE(multiply(72, std::uint64_t{1} << 57));
  EXPECT_TRUE(multiply(73, std::uint64_t{1} << 57));
  // Non-powers of two against the full 64-bit range fall back.
  EXPECT_FALSE(multiply(3, UINT64_MAX));
  EXPECT_FALSE(multiply(72, UINT64_MAX));
  EXPECT_FALSE(multiply((std::uint64_t{1} << 32) + 1, UINT64_MAX));
  EXPECT_FALSE(multiply(UINT64_MAX, UINT64_MAX));
  // Dividing by 1 needs neither.
  EXPECT_FALSE(multiply(1, UINT64_MAX));
}

TEST(FastDiv64Test, MultiplyPathHoldsUpToTheLargestProvenBound) {
  // For d = 3, M = ceil(2^64 / 3) overshoots by e = 2, so the multiply
  // is proven exact for every n <= (2^64 - 1) / 2 and not beyond.
  const std::uint64_t bound = UINT64_MAX / 2;
  const FastDiv64 div(3, bound);
  ASSERT_TRUE(div.exact_multiply());
  expect_exact(div, bound);
  EXPECT_FALSE(FastDiv64(3, bound + 1).exact_multiply());
  // For d = 2^32 + 1, e = 2^32: exact up to (2^64 - 1) / 2^32.
  const std::uint64_t wide = (std::uint64_t{1} << 32) + 1;
  const std::uint64_t wide_bound = UINT64_MAX >> 32;
  const FastDiv64 wide_div(wide, wide_bound);
  ASSERT_TRUE(wide_div.exact_multiply());
  expect_exact(wide_div, wide_bound);
  EXPECT_FALSE(FastDiv64(wide, wide_bound + 1).exact_multiply());
}

TEST(FastDiv64Test, DefaultDividesByOneAndZeroIsRejected) {
  const FastDiv64 one;
  EXPECT_EQ(one.divisor(), 1u);
  EXPECT_EQ(one.divide(UINT64_MAX), UINT64_MAX);
  EXPECT_THROW(FastDiv64(0), InvalidArgument);
}

}  // namespace
}  // namespace ftspm
