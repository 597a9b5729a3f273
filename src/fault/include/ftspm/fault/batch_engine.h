// The strike front end shared by the three batched campaign engines:
// static injection (injector_batch.cpp), live-array recovery with
// scrubbing (recovery_batch.cpp) and the residency-resolved temporal
// campaign (core/system_campaign_batch.cpp).
//
// This header is the one place that knows how a strike is aimed and
// how its physical bits land on codewords:
//
//  * the region row (BatchRegionInfo, built per chunk by
//    build_region_table into the shard's CampaignScratch::Batch) and
//    the region pick (pick_region over its draw-bits breakpoints);
//  * the draw-domain primitives: Bernoulli trials as compares against
//    ceil(p * 2^53) (DrawBernoulli), flip multiplicities as compares
//    against cumulative cutoffs (sample_flips_draw);
//  * the landing of a strike's flips: for_each_run splits a contiguous
//    strike into one (word, start bit, length) run per codeword, and
//    for_each_interleaved_bit locates each flip of an interleaved one;
//  * the per-outcome tally flush (flush_tallies).
//
// Each engine owns what it does with a landed flip: the static and
// temporal engines classify it (run-outcome tables, word_outcome), the
// recovery engine deposits it in its error planes and keeps its own
// per-region repair constants (LiveArrayCampaign::RecoveryRow).
// Everything in ftspm::detail is an implementation detail of the
// campaign engines — not API — but the equivalences are load-bearing:
// each draw helper is bit-identical to the Rng primitive it replaces
// (see docs/performance.md, "Integer-domain draws", and
// tests/fault/batch_engine_test.cpp).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "ftspm/fault/injector.h"
#include "ftspm/fault/strike_model.h"
#include "ftspm/mem/geometry.h"
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

/// Resolves Rng::next_bool(p)'s arm once (DrawBernoulli, injector.h).
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

/// Rebuilds the per-region aim table (allocation-free after the first
/// chunk), applying the same validation the per-strike loop ran, and
/// the region-pick breakpoints (build_pick_bits) into `batch`.
void build_region_table(const std::vector<InjectionRegion>& regions,
                        CampaignScratch::Batch& batch);

/// Walks the flips of a strike of `flips` bits at physical bit `origin`
/// of an uninterleaved region, clipped at the surface edge: they split
/// into runs of consecutive bits, one per codeword, and `fn(word, lo,
/// len)` sees each as codeword bits [lo, lo + len), words ascending.
template <typename Fn>
inline void for_each_run(const BatchRegionInfo& R, std::uint64_t origin,
                         std::uint64_t flips, Fn&& fn) {
  const std::uint32_t cw = R.codeword_bits;
  std::uint64_t remaining = std::min(flips, R.physical_bits - origin);
  std::uint64_t word = R.div_codeword.divide(origin);
  auto lo = static_cast<std::uint32_t>(origin - word * cw);
  for (; remaining > 0; ++word, lo = 0) {
    const auto len =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(cw - lo, remaining));
    fn(word, lo, len);
    remaining -= len;
  }
}

/// Walks the flips of a strike of `flips` bits at physical bit `origin`
/// of an interleaved region, clipped at the surface edge, in physical
/// order: adjacent physical bits belong to `interleave` different
/// codewords, and `fn(word, bit)` sees each flip as codeword bit `bit`
/// of `word` (locate_strike_bit's arithmetic, divides replaced by magic
/// multiplies). Bits of a partial final group hold no word and are
/// skipped.
template <typename Fn>
inline void for_each_interleaved_bit(const BatchRegionInfo& R,
                                     std::uint64_t origin,
                                     std::uint64_t flips, Fn&& fn) {
  const std::uint64_t end = origin + std::min(flips, R.physical_bits - origin);
  for (std::uint64_t index = origin; index < end; ++index) {
    const std::uint64_t group = R.div_group.divide(index);
    const std::uint64_t within = index - group * R.group_bits;
    const auto bit = static_cast<std::uint32_t>(R.div_interleave.divide(within));
    const std::uint64_t word =
        group * R.interleave + (within - std::uint64_t{bit} * R.interleave);
    if (word < R.words) fn(word, bit);
  }
}

/// Adds a chunk's per-outcome strike counts (indexed by StrikeOutcome
/// value) to `into`, strikes included.
inline void flush_tallies(const std::uint64_t (&tallies)[4],
                          CampaignResult& into) noexcept {
  into.strikes += tallies[0] + tallies[1] + tallies[2] + tallies[3];
  into.masked += tallies[static_cast<std::size_t>(StrikeOutcome::Masked)];
  into.dre += tallies[static_cast<std::size_t>(StrikeOutcome::Dre)];
  into.due += tallies[static_cast<std::size_t>(StrikeOutcome::Due)];
  into.sdc += tallies[static_cast<std::size_t>(StrikeOutcome::Sdc)];
}

/// StrikeOutcome of one struck word's error pattern: `data_mask` holds
/// the flipped data bits, `check_mask` the flipped check bits shifted
/// down to bit 0 (the codecs read its low 8). This is the per-word
/// verdict of the reference classify_strike (oracle/strike_oracle.h,
/// in the test- and bench-only ftspm_oracle target) without its burned
/// draw; Immune words are Masked.
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

/// Widest codeword a region can carry: 64 data bits plus the most
/// check bits RegionGeometry accepts.
inline constexpr std::uint32_t kRunSyndromeBits =
    RegionGeometry::kDataBitsPerWord + RegionGeometry::kMaxCheckBitsPerWord;

/// One row of a run-syndrome table: row `lo` holds, at index `len`, the
/// syndrome of the word pattern that flips codeword bits [lo, lo + len).
using RunSyndromeRow = std::array<std::uint8_t, kRunSyndromeBits + 1>;

/// The run-syndrome table of `protection` (Parity or SEC-DED; null for
/// any other kind): kRunSyndromeBits rows, where entry [lo][len] is the
/// syndrome of group_masks(lo, lo + len) as the stored planes hold it —
/// check bits past the 8-bit check plane drop out, as they do from the
/// plane itself — for every lo + len <= kRunSyndromeBits. SEC-DED
/// syndromes are the 8-bit Hsiao fold, parity ones the 0/1 parity bit.
/// Syndromes are linear, so XOR-ing an entry into a word's cached
/// syndrome (RegionImage::syndrome) keeps it current across a flip of
/// that run. Built once per process; safe to call concurrently.
const RunSyndromeRow* run_syndrome_table(ProtectionKind protection);

/// Classifies one strike through the batch engine's fast / straddle /
/// general paths against the region table entry `R` and returns its
/// final pre-ACE verdict (a StrikeOutcome value). Burns exactly one
/// next_u64 per struck codeword — the documented RNG contract. The
/// caller owns the ACE-occupancy draw: `R.ace` must be the always-kept
/// arm (an occupancy of 1.0, no draw taken here), which is how the
/// temporal campaign applies its per-span ACE fractions after
/// classification. Immune regions early-out with no draw at all.
std::uint8_t classify_batch_strike(const BatchRegionInfo& R, Rng& rng,
                                   CampaignScratch& scratch,
                                   std::uint64_t origin, std::uint32_t flips);

}  // namespace detail
}  // namespace ftspm
