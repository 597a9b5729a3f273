// Exact batched floating-point accumulation.
//
// A counter that gains the same constant once per event, such as an
// energy total charged per access, can be computed from the event count
// alone without changing a single bit of the result.
#pragma once

#include <cstdint>

namespace ftspm {

/// Returns, bit for bit, what `for (k times) acc += c;` leaves in `acc`
/// under round-to-nearest-even, in time logarithmic in k. `acc` and `c`
/// must not have opposite signs (either may be zero) and must not be NaN.
///
/// Why batching is exact: inside one binade [2^e, 2^(e+1)) every double
/// is a multiple of the binade's ulp u, so `acc += c` adds c rounded to a
/// multiple of u, the same step whatever acc is, unless c sits exactly
/// half an ulp off a multiple (a tie, where the step depends on acc's
/// last bit). So k adds equal one `acc += k * step` while the sum stays
/// in the binade. The sum steps one add at a time across binade edges
/// and on a tie from an odd acc; a tie from an even acc picks the step
/// that keeps it even, so it repeats. A step that rounds to zero leaves
/// acc where it is for good.
double repeated_add(double acc, double c, std::uint64_t k);

}  // namespace ftspm
