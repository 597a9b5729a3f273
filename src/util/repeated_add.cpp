#include "ftspm/util/repeated_add.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ftspm/util/error.h"

namespace ftspm {

double repeated_add(double acc, double c, std::uint64_t k) {
  FTSPM_REQUIRE(!std::isnan(acc) && !std::isnan(c) &&
                    !(acc > 0.0 && c < 0.0) && !(acc < 0.0 && c > 0.0),
                "repeated_add needs terms of one sign");
  // Round-to-nearest is symmetric, so a negative sum is a negated one.
  if (acc < 0.0 || c < 0.0) return -repeated_add(-acc, -c, k);
  constexpr int kDigits = std::numeric_limits<double>::digits;  // 53
  while (k > 0) {
    const double next = acc + c;
    if (next == acc) return acc;  // c rounds away: acc stays for good.
    // acc's binade is [top / 2, top), top = top_units * u, with ulp u;
    // zero and the subnormals share the smallest normal binade's ulp
    // below DBL_MIN. (top overflows to infinity for the largest binade,
    // which the integer unit counts never see.)
    double u = std::numeric_limits<double>::denorm_min();
    std::uint64_t top_units = std::uint64_t{1} << (kDigits - 1);
    if (acc >= std::numeric_limits<double>::min()) {
      u = std::ldexp(1.0, std::ilogb(acc) - (kDigits - 1));
      top_units = std::uint64_t{1} << kDigits;
    }
    if (next >= static_cast<double>(top_units) * u) {  // crosses the edge
      acc = next;
      --k;
      continue;
    }
    // Below top, acc and next are multiples of u under 2^53 u: next - acc
    // is exact and the quotients by u are exact integers. c - delta is
    // exact by Sterbenz's lemma, as delta >= u and |c - delta| <= u / 2.
    const auto units = [u](double x) {
      return static_cast<std::uint64_t>(x / u);
    };
    const double delta = next - acc;
    const double off = c - delta;
    const bool tie = off != 0.0 && 2.0 * std::fabs(off) == u;
    if (tie && (units(acc) & 1) != 0) {
      acc = next;
      --k;
      continue;
    }
    const std::uint64_t step = units(delta);
    const std::uint64_t n = std::min(k, (top_units - units(acc) - 1) / step);
    acc += static_cast<double>(n * step) * u;
    k -= n;
  }
  return acc;
}

}  // namespace ftspm
