// Internal machinery of the batched campaign engines.
//
// PR 8's static-campaign engine (injector_batch.cpp) replaced the
// per-strike FP draw pipeline with exact integer-domain equivalents:
// region picks as compares against precomputed subtract-scan
// breakpoints, Bernoulli trials as compares against ceil(p * 2^53),
// and flip multiplicities as compares against cumulative cutoffs. The
// live-array recovery and temporal campaigns batch their hot loops on
// the same machinery, so the shared pieces live here. Everything in
// ftspm::detail is an implementation detail of the campaign engines —
// not API — but the equivalences are load-bearing: each helper is
// bit-identical to the Rng primitive it replaces (see
// docs/performance.md, "Integer-domain draws", and
// tests/fault/batch_engine_test.cpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "ftspm/fault/injector.h"
#include "ftspm/fault/strike_model.h"
#include "ftspm/util/rng.h"

namespace ftspm {
namespace detail {

/// One draw past the largest value next_double() can yield: draw bits
/// (x >> 11) live in [0, 2^53).
inline constexpr std::uint64_t kDrawBitsEnd = std::uint64_t{1} << 53;

/// ceil(p * 2^53), the integer-domain image of a [0, 1] probability:
/// `next_double() < p  <=>  (x >> 11) < ceil(p * 2^53)`. The product
/// is exact (a double times a power of two only shifts the exponent),
/// and an integer is below a real threshold iff below its ceiling, so
/// the raw-bits comparison is bit-identical to the double one while
/// resolving ~10 cycles earlier.
inline std::uint64_t prob_to_draw_bits(double p) noexcept {
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

/// Rng::next_bool's three arms resolved once per probability: mode 0
/// (p <= 0, always false, no draw), mode 1 (p >= 1, always true, no
/// draw), mode 2 (one draw compared in the draw-bits domain).
struct DrawBernoulli {
  std::uint8_t mode = 1;
  std::uint64_t bits = 0;
};

inline DrawBernoulli make_draw_bernoulli(double p) noexcept {
  DrawBernoulli b;
  b.mode = p <= 0.0 ? std::uint8_t{0} : p >= 1.0 ? std::uint8_t{1}
                                                 : std::uint8_t{2};
  if (b.mode == 2) b.bits = prob_to_draw_bits(p);
  return b;
}

/// Draws (or doesn't) exactly as Rng::next_bool(p) would for the
/// probability `b` was built from.
inline bool draw_bernoulli(Rng& rng, const DrawBernoulli& b) noexcept {
  if (b.mode == 2) return (rng.next_u64() >> 11) < b.bits;
  return b.mode != 0;
}

/// (data, check) masks of one contiguous struck run [lo, hi) within a
/// codeword, branchless: an empty half shifts a zero mask (the & 63
/// keeps the shift defined when the data half is empty; check spans
/// are accumulated in 32 bits).
struct GroupMasks {
  std::uint64_t data;
  std::uint32_t check;
};

inline GroupMasks group_masks(std::uint32_t lo, std::uint32_t hi) noexcept {
  const std::uint32_t lo_d = std::min(lo, RegionGeometry::kDataBitsPerWord);
  const std::uint32_t hi_d = std::min(hi, RegionGeometry::kDataBitsPerWord);
  const std::uint32_t len_d = hi_d - lo_d;
  const std::uint64_t data =
      (len_d >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << len_d) - 1)
      << (lo_d & 63);
  const std::uint32_t lo_c = std::max(lo, RegionGeometry::kDataBitsPerWord) -
                             RegionGeometry::kDataBitsPerWord;
  const std::uint32_t hi_c = std::max(hi, RegionGeometry::kDataBitsPerWord) -
                             RegionGeometry::kDataBitsPerWord;
  const std::uint32_t check = ((1u << (hi_c - lo_c)) - 1) << lo_c;
  return GroupMasks{data, check};
}

/// Recovers Rng::next_discrete's decision boundaries in draw-bits
/// space: pick_bits[k] is the smallest u_bits = x >> 11 whose
/// subtract-scan partial k is non-negative (kDrawBitsEnd when none
/// is), found by per-chunk binary search over the 2^53 draw grid;
/// `fallback` is the scan's underflow fallback (the last positive
/// weight). Pads pick_bits with never-reached sentinels to at least 4
/// entries so pick_region can run a fixed unrolled compare for the
/// common small mixes. Weights must contain at least one positive
/// entry summing to `total` exactly as the caller accumulated it.
void build_pick_bits(const std::vector<double>& weights, double total,
                     std::vector<std::uint64_t>& pick_bits,
                     std::size_t& fallback);

/// The discrete region pick, replicating Rng::next_discrete's
/// subtract-scan (and its underflow fallback) bit for bit via the
/// precomputed draw-bits breakpoints. Branch-free over the table: the
/// partials only decrease down the scan, so the count of
/// draws-at-or-past-breakpoint equals the count of non-negative
/// partials — the scan's answer.
inline std::size_t pick_region(Rng& rng, const std::uint64_t* breaks,
                               std::size_t count,
                               std::size_t fallback) noexcept {
  const std::uint64_t ub = rng.next_u64() >> 11;
  std::size_t idx;
  if (count <= 4) {
    idx = static_cast<std::size_t>(ub >= breaks[0]) +
          static_cast<std::size_t>(ub >= breaks[1]) +
          static_cast<std::size_t>(ub >= breaks[2]) +
          static_cast<std::size_t>(ub >= breaks[3]);
  } else {
    idx = 0;
    for (std::size_t i = 0; i < count; ++i) idx += ub >= breaks[i] ? 1 : 0;
  }
  return idx >= count ? fallback : idx;
}

/// StrikeMultiplicityModel::sample_flips' cumulative cutoffs mapped to
/// the draw-bits domain, associating the sums exactly as sample_flips
/// does (c3 = (p1 + p2) + p3) so every comparison sees the identical
/// double.
struct FlipCutoffs {
  std::uint64_t b1 = 0;
  std::uint64_t b2 = 0;
  std::uint64_t b3 = 0;
};

/// Builds the cutoffs, hoisting the validation sample_flips re-ran per
/// strike (max_flips must fit the >3 tail; cutoffs must be monotone).
FlipCutoffs make_flip_cutoffs(const StrikeMultiplicityModel& strikes,
                              std::uint32_t max_flips);

/// 1 when `ub >= b`, else 0, computed as arithmetic: for ub < 2^53
/// (draw bits) and b <= 2^53 (a cutoff), `b - 1 - ub` wraps below zero
/// exactly when ub >= b — b = 0 wraps for every ub — so its top bit is
/// the flag. GCC 12 turns the plain `ub >= b` sum of sample_flips_draw
/// into a conditional jump on the first cutoff (a 62/38 coin flip at
/// 40 nm); a subtract and a shift leave it nothing to branch on.
inline std::uint32_t at_or_past(std::uint64_t ub, std::uint64_t b) noexcept {
  return static_cast<std::uint32_t>((b - 1 - ub) >> 63);
}

/// sample_flips inlined draw for draw in the draw-bits domain: the
/// if-chain `u < c1 -> 1, ...` becomes a branch-free count of the
/// cutoffs at or below the draw (exact because the cutoffs are
/// monotone, checked by make_flip_cutoffs); only the rare >3-bit tail
/// still loops, one next_u64 per coin flip exactly as next_bool(0.5)
/// draws.
inline std::uint32_t sample_flips_draw(Rng& rng, const FlipCutoffs& c,
                                       std::uint32_t max_flips) noexcept {
  // next_bool(0.5) of the >3-bit tail: u < 0.5 <=> draw bits < 2^52.
  constexpr std::uint64_t kHalfBits = std::uint64_t{1} << 52;
  const std::uint64_t ub = rng.next_u64() >> 11;
  std::uint32_t flips = 1 + at_or_past(ub, c.b1) + at_or_past(ub, c.b2) +
                        at_or_past(ub, c.b3);
  if (flips == 4)
    while (flips < max_flips && (rng.next_u64() >> 11) < kHalfBits) ++flips;
  return flips;
}

/// Runs `fn(Rng&)` — an out-of-line call that draws — on a copy of a
/// hot loop's generator and writes the copy back. Handed over this way,
/// the loop's own generator never has its address taken, so GCC keeps
/// its four state words in registers instead of storing them to the
/// stack after every draw. Draws and stream position are unchanged.
template <typename Fn>
inline auto on_rng_copy(Rng& rng, Fn&& fn) {
  Rng copy = rng;
  if constexpr (std::is_void_v<std::invoke_result_t<Fn&, Rng&>>) {
    fn(copy);
    rng = copy;
  } else {
    auto out = fn(copy);
    rng = copy;
    return out;
  }
}

/// Rebuilds the per-region constant table (allocation-free after the
/// first chunk), applying the same validation the per-strike loop ran,
/// and the region-pick breakpoints (build_pick_bits) into `batch`.
void build_region_table(const std::vector<InjectionRegion>& regions,
                        CampaignScratch::Batch& batch);

/// StrikeOutcome of one struck word's error pattern: `data_mask` holds
/// the flipped data bits, `check_mask` the flipped check bits shifted
/// down to bit 0 (the codecs read its low 8). This is classify_strike's
/// per-word verdict without its burned draw; Immune words are Masked.
StrikeOutcome word_outcome(ProtectionKind protection, std::uint64_t data_mask,
                           std::uint32_t check_mask);

/// The run-outcome table of `protection` (None, Parity or SEC-DED; null
/// for any other kind): kRunTableBits rows, where entry [lo][len] is
/// the word_outcome of group_masks(lo, lo + len) as a StrikeOutcome
/// value, for every lo + len <= kRunTableBits (other entries are 0).
/// An uninterleaved strike flips a contiguous run of bits in each
/// codeword it touches, so one entry classifies each struck word. Each
/// table is built once per process; safe to call concurrently.
const RunOutcomeRow* run_outcome_table(ProtectionKind protection);

/// Classifies one strike through the batch engine's fast / straddle /
/// general paths against the region table entry `R` and returns its
/// final pre-ACE verdict (a StrikeOutcome value). Burns exactly one
/// next_u64 per struck codeword — the documented RNG contract. The
/// caller owns the ACE-occupancy draw: `R.ace_occupancy` must be 1.0
/// (no draw taken here), which is how the temporal campaign applies its
/// per-span ACE fractions after classification. Immune regions
/// early-out with no draw at all.
std::uint8_t classify_batch_strike(const BatchRegionInfo& R, Rng& rng,
                                   CampaignScratch& scratch,
                                   std::uint64_t origin, std::uint32_t flips);

}  // namespace detail
}  // namespace ftspm
