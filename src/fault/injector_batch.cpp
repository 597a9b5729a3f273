// Batched structure-of-arrays campaign engine (run_campaign_chunk).
//
// The per-strike loop this replaces (PR 4's syndrome kernel driving one
// strike at a time) spent most of its cycles on per-strike call and
// branch overhead: re-validated weight tables, hardware divides for the
// aim arithmetic, a generic per-word classify call, and observer/grid
// virtual-ish hops for every strike. This engine processes strikes in
// blocks of CampaignScratch::Batch::width:
//
//  stage 1 — sequential generation + run-table classification. Each
//      slot draws its region, origin, and flip count from the shard RNG
//      in EXACTLY the documented per-strike order (docs/performance.md)
//      and aims the flips with precomputed magic-multiply dividers. An
//      uninterleaved strike flips a contiguous run of bits in each
//      codeword it touches, so each word's verdict is a function of
//      (start bit, run length) alone: one byte of the region's
//      run-outcome table (detail::run_outcome_table) classifies a
//      single-word strike, one byte per word a codeword straddle, and
//      no mask is ever built. Interleaved aim and exotic check-bit
//      geometries take the general path out of line, which builds each
//      word's masks and classifies them on the spot. The ACE-occupancy
//      draw follows, keeping the stream position exact; a contiguous
//      run is never Masked pre-ACE (>= 1 surviving bit always corrupts
//      or trips a check), so on the fast path the draw predicate needs
//      no verdict.
//  stage 2 — tally: the ACE-filtered outcome (a multiply: keep is 0/1
//      and Masked is 0) joins one packed counter word (OutcomeTally),
//      flushed into the shard's counters after each block.
//  stage 3 — the sensitivity-grid sweep over the block.
//
// Without a sensitivity grid nothing consumes per-strike state, and the
// chunk runs in TIGHT mode: stage 3 and the per-slot stores that feed
// it disappear. Both modes draw, classify
// and count identically; tight mode just skips materializing state
// nobody reads.
//
// The draw-domain primitives (integer-image Bernoulli/discrete picks,
// flip cutoffs, the region table build) live in
// ftspm/fault/batch_engine.h and are shared with the batched recovery
// and temporal engines (recovery_batch.cpp, system_campaign_batch.cpp); the
// non-trivial ones are defined at the bottom of this file.
//
// Equivalence contract: identical counters, grids, and RNG stream
// position to the old per-strike loop for every (regions, strikes,
// config, chunking) — pinned by
// tests/fault/batch_engine_test.cpp against the reference
// classify_strike (oracle/strike_oracle.h) and by
// tests/integration/campaign_golden_test.cpp end to end.
#include <algorithm>
#include <array>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "ftspm/fault/batch_engine.h"
#include "ftspm/fault/injector.h"
#include "ftspm/fault/sensitivity.h"
#include "ftspm/util/error.h"

namespace ftspm {

using detail::group_masks;
using detail::GroupMasks;
using detail::kDrawBitsEnd;
using detail::pick_region;
using detail::prob_to_draw_bits;

namespace {

/// Mask of data-word bits [lo, hi), hi <= 64, lo < hi.
inline std::uint64_t range_mask64(std::uint32_t lo, std::uint32_t hi) {
  const std::uint32_t len = hi - lo;
  return (len >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << len) - 1) << lo;
}

/// Mask of check bits [lo, hi) (0-based above the data word), hi - lo
/// <= 32 — check_mask has always been accumulated in 32 bits.
inline std::uint32_t range_mask32(std::uint32_t lo, std::uint32_t hi) {
  const std::uint32_t len = hi - lo;
  return (len >= 32 ? ~0u : (1u << len) - 1) << lo;
}

/// Whether (protection, geometry) qualifies for the run-table classify
/// path: the protection kind must have a run-outcome table and every
/// codeword bit must be one the table's verdicts see.
///  * None with <= 8 check bits: any surviving bit is silent corruption.
///  * Parity with <= 1 check bit: extra check bits would alias flips the
///    parity check cannot see.
///  * SEC-DED with <= 8 check bits: the codec reads 8 check bits, so a
///    codeword is at most kRunTableBits wide.
bool lut_classifiable(ProtectionKind protection, std::uint32_t check_bits) {
  switch (protection) {
    case ProtectionKind::None: return check_bits <= 8;
    case ProtectionKind::Parity: return check_bits <= 1;
    case ProtectionKind::SecDed: return check_bits <= 8;
    default: return false;
  }
}

/// The general per-strike path: interleaved regions and exotic
/// check-bit geometries, whose word patterns are not runs the
/// run-outcome tables cover; each word is classified as found. Kept
/// out of line so the dominant fast path compiles to a small loop body
/// with no spills from this machinery; identical RNG draws and
/// outcomes to the per-strike classifier. Returns the strike's outcome
/// after its ACE draw; at ace_occupancy 1.0 that draw is the no-draw
/// arm, so the pre-ACE verdict comes back.
[[gnu::noinline]] std::uint8_t classify_general_strike(
    const BatchRegionInfo& R, Rng& rng, CampaignScratch& scratch,
    std::uint64_t origin, std::uint32_t flips) {
  const std::uint32_t cw = R.codeword_bits;
  StrikeOutcome worst = StrikeOutcome::Masked;
  const auto note_word = [&](std::uint64_t data_mask,
                             std::uint32_t check_mask) {
    // One draw per struck codeword — the retained oracle draw the
    // RNG contract pins (docs/performance.md).
    (void)rng.next_u64();
    worst = std::max(worst,
                     detail::word_outcome(R.protection, data_mask, check_mask));
  };

  if (R.interleave <= 1) {
    // Contiguous aim: surviving flips clip at the surface edge and
    // split into runs of consecutive bits per codeword, so each
    // word's masks are plain bit ranges — no per-bit loop, no sort.
    auto remaining = static_cast<std::uint64_t>(
        std::min<std::uint64_t>(flips, R.physical_bits - origin));
    std::uint64_t word = R.div_codeword.divide(origin);
    auto bit = static_cast<std::uint32_t>(origin - word * cw);
    while (remaining > 0) {
      const auto len = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(cw - bit, remaining));
      const std::uint32_t hi = bit + len;
      std::uint64_t data_mask = 0;
      std::uint32_t check_mask = 0;
      if (bit < RegionGeometry::kDataBitsPerWord)
        data_mask = range_mask64(
            bit, std::min(hi, RegionGeometry::kDataBitsPerWord));
      if (hi > RegionGeometry::kDataBitsPerWord)
        check_mask = range_mask32(
            std::max(bit, RegionGeometry::kDataBitsPerWord) -
                RegionGeometry::kDataBitsPerWord,
            hi - RegionGeometry::kDataBitsPerWord);
      note_word(data_mask, check_mask);
      remaining -= len;
      bit = 0;
      ++word;
    }
  } else {
    // Interleaved aim (the ablation path): per-bit located hits,
    // word-sorted, grouped — the shape of the per-strike
    // classifier, with the divides replaced by the magic multiply.
    using WordHit = std::pair<std::uint64_t, std::uint32_t>;
    WordHit* hits = scratch.hits.data();
    if (flips > CampaignScratch::kInlineHits) {
      scratch.spill.clear();
      scratch.spill.resize(flips);
      hits = scratch.spill.data();
    }
    std::size_t n = 0;
    for (std::uint32_t k = 0; k < flips && origin + k < R.physical_bits;
         ++k) {
      const std::uint64_t g = origin + k;
      const std::uint64_t group = R.div_group.divide(g);
      const std::uint64_t within = g - group * R.group_bits;
      const std::uint64_t word =
          group * R.interleave + R.div_interleave.modulo(within);
      if (word >= R.words) continue;
      hits[n++] = WordHit{
          word, static_cast<std::uint32_t>(R.div_interleave.divide(within))};
    }
    for (std::size_t i = 1; i < n; ++i) {
      const WordHit h = hits[i];
      std::size_t j = i;
      for (; j > 0 && hits[j - 1].first > h.first; --j) hits[j] = hits[j - 1];
      hits[j] = h;
    }
    std::size_t i = 0;
    while (i < n) {
      const std::uint64_t word = hits[i].first;
      std::uint64_t data_mask = 0;
      std::uint32_t check_mask = 0;
      for (; i < n && hits[i].first == word; ++i) {
        const std::uint32_t b = hits[i].second;
        if (b < RegionGeometry::kDataBitsPerWord)
          data_mask |= std::uint64_t{1} << b;
        else
          check_mask |= 1u << (b - RegionGeometry::kDataBitsPerWord);
      }
      note_word(data_mask, check_mask);
    }
  }

  // ACE draw, in stream position: the per-strike loop drew exactly
  // when the pre-ACE outcome was not Masked.
  if (worst != StrikeOutcome::Masked && !rng.next_bool(R.ace_occupancy))
    worst = StrikeOutcome::Masked;
  return static_cast<std::uint8_t>(worst);
}

/// Fast-path strike that straddles codeword boundaries (< 1% of
/// strikes at realistic word sizes): its run splits into the tail
/// [bit, cw) of the first word and a head [0, len) of each later one,
/// whose run-table verdicts max-merge. Out of line for the same reason
/// as classify_general_strike. Draw order matches the inline path —
/// one burned draw per struck codeword, in address order.
[[gnu::noinline]] std::uint8_t classify_straddle_strike(
    const BatchRegionInfo& R, Rng& rng, std::uint32_t bit, std::uint64_t m) {
  const std::uint32_t cw = R.codeword_bits;
  (void)rng.next_u64();
  std::uint8_t worst = R.run[bit][cw - bit];
  std::uint64_t remaining = m - (cw - bit);
  while (remaining > 0) {
    const auto len =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(cw, remaining));
    (void)rng.next_u64();
    worst = std::max(worst, R.run[0][len]);
    remaining -= len;
  }
  return worst;
}

/// Pre-ACE verdict of a strike of `flips` bits at `origin` on a fast
/// region: the run clips at the surface edge, and a run inside one
/// codeword (the common case) is one burned draw and one table read.
[[gnu::always_inline]] inline std::uint8_t classify_fast_strike(
    const BatchRegionInfo& R, Rng& rng, std::uint64_t origin,
    std::uint32_t flips) {
  const std::uint32_t cw = R.codeword_bits;
  const std::uint64_t m =
      std::min<std::uint64_t>(flips, R.physical_bits - origin);
  const std::uint64_t word = R.div_codeword.divide(origin);
  const auto bit = static_cast<std::uint32_t>(origin - word * cw);
  if (bit + m <= cw) [[likely]] {
    (void)rng.next_u64();
    return R.run[bit][m];
  }
  return detail::on_rng_copy(rng, [&](Rng& r) {
    return classify_straddle_strike(R, r, bit, m);
  });
}

/// The static chunk loop's outcome counters: the four StrikeOutcome
/// values (0..3) as 16-bit lanes of one word, so a tally is one
/// shift-add on one variable where four compare-adds updated four
/// (which GCC kept in stack slots). A lane holds at most kCapacity
/// adds; callers flush into the 64-bit counters at least that often.
struct OutcomeTally {
  static constexpr std::uint32_t kCapacity = 0xFFFF;

  std::uint64_t packed = 0;

  void add(std::uint8_t outcome) noexcept {
    packed += std::uint64_t{1} << (16 * outcome);
  }

  /// Adds the lanes into `into`'s outcome counters and empties them.
  void flush(CampaignResult& into) noexcept {
    into.masked += packed & 0xFFFF;
    into.dre += (packed >> 16) & 0xFFFF;
    into.due += (packed >> 32) & 0xFFFF;
    into.sdc += packed >> 48;
    packed = 0;
  }
};

}  // namespace

namespace detail {

void build_pick_bits(const std::vector<double>& weights, double total,
                     std::vector<std::uint64_t>& pick_bits,
                     std::size_t& fallback) {
  FTSPM_REQUIRE(total > 0.0, "at least one weight must be positive");
  // Sign of subtract-scan partial k at draw bits `ub`, exactly as the
  // per-strike scan computed it: u converts exactly (53-bit integer
  // scaled by a power of two), then one rounded multiply and k + 1
  // rounded subtractions.
  const auto partial_nonneg = [&](std::uint64_t ub, std::size_t k) {
    double r = static_cast<double>(ub) * 0x1.0p-53 * total;
    for (std::size_t i = 0; i <= k; ++i) r -= weights[i];
    return r >= 0.0;
  };
  pick_bits.resize(weights.size());
  for (std::size_t k = 0; k < weights.size(); ++k) {
    if (!partial_nonneg(kDrawBitsEnd - 1, k)) {
      pick_bits[k] = kDrawBitsEnd;  // this partial is never >= 0
      continue;
    }
    std::uint64_t lo = 0, hi = kDrawBitsEnd - 1;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (partial_nonneg(mid, k))
        hi = mid;
      else
        lo = mid + 1;
    }
    pick_bits[k] = hi;
  }
  // Pad with never-reached sentinels so the per-strike pick can always
  // run a fixed four compares for the common <= 4-region mixes: draw
  // bits are < 2^53, so a sentinel never increments the index.
  while (pick_bits.size() < 4) pick_bits.push_back(kDrawBitsEnd);
  // next_discrete's underflow fallback: the last positive weight.
  fallback = weights.size() - 1;
  for (std::size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) {
      fallback = i;
      break;
    }
  }
}

void build_region_table(const std::vector<InjectionRegion>& regions,
                        CampaignScratch::Batch& batch) {
  std::vector<BatchRegionInfo>& table = batch.regions;
  std::vector<double>& weights = batch.weights;
  table.clear();
  table.reserve(regions.size());
  weights.clear();
  weights.reserve(regions.size());
  double total = 0.0;
  for (const auto& r : regions) {
    FTSPM_REQUIRE(r.ace_occupancy >= 0.0 && r.ace_occupancy <= 1.0,
                  "ace_occupancy out of [0,1]");
    FTSPM_REQUIRE(r.interleave >= 1, "interleave degree must be >= 1");
    BatchRegionInfo info;
    info.physical_bits = r.geometry.physical_bits();
    info.weight = static_cast<double>(info.physical_bits);
    info.words = r.geometry.words();
    info.codeword_bits = r.geometry.codeword_bits();
    info.interleave = r.interleave;
    info.group_bits =
        static_cast<std::uint64_t>(info.codeword_bits) * r.interleave;
    info.protection = r.protection;
    info.ace_occupancy = r.ace_occupancy;
    info.div_codeword = FastDiv64(info.codeword_bits, info.physical_bits);
    if (r.interleave > 1) {
      info.div_group = FastDiv64(info.group_bits, info.physical_bits);
      info.div_interleave = FastDiv64(r.interleave, info.group_bits);
    }
    info.fast = r.interleave == 1 && info.physical_bits > 0 &&
                lut_classifiable(r.protection,
                                 r.geometry.check_bits_per_word());
    if (info.fast) info.run = run_outcome_table(r.protection);
    info.ace_mode = r.ace_occupancy <= 0.0   ? std::uint8_t{0}
                    : r.ace_occupancy >= 1.0 ? std::uint8_t{1}
                                             : std::uint8_t{2};
    if (info.ace_mode == 2)
      info.ace_bits = prob_to_draw_bits(r.ace_occupancy);
    // next_discrete validated the weights on every strike; the weights
    // are per-chunk constants, so once per chunk is the same check.
    total += info.weight;
    weights.push_back(info.weight);
    table.push_back(info);
  }
  batch.total_weight = total;
  build_pick_bits(weights, total, batch.pick_bits, batch.pick_fallback);
}

FlipCutoffs make_flip_cutoffs(const StrikeMultiplicityModel& strikes,
                              std::uint32_t max_flips) {
  // sample_flips REQUIREs the >3 tail fits, per strike; hoisted here
  // since max_flips is a chunk constant. The branchless comparison sum
  // in sample_flips_draw needs the cutoffs monotone, which holds for
  // any non-negative probabilities. The sums associate exactly as
  // sample_flips does (c3 = (p1 + p2) + p3) so every comparison sees
  // the identical double.
  FTSPM_REQUIRE(max_flips >= 4, "max_flips must allow the >3 tail");
  const double c1 = strikes.p_exactly(1);
  const double c2 = c1 + strikes.p_exactly(2);
  const double c3 = c2 + strikes.p_exactly(3);
  FTSPM_REQUIRE(c1 >= 0.0 && c2 >= c1 && c3 >= c2,
                "flip multiplicities must be non-negative");
  FlipCutoffs cuts;
  cuts.b1 = prob_to_draw_bits(c1);
  cuts.b2 = prob_to_draw_bits(c2);
  cuts.b3 = prob_to_draw_bits(c3);
  return cuts;
}

const RunOutcomeRow* run_outcome_table(ProtectionKind protection) {
  using Table = std::array<RunOutcomeRow, kRunTableBits>;
  static constexpr ProtectionKind kKinds[] = {
      ProtectionKind::None, ProtectionKind::Parity, ProtectionKind::SecDed};
  static const std::array<Table, 3> tables = [] {
    std::array<Table, 3> built{};
    for (std::size_t k = 0; k < 3; ++k)
      for (std::uint32_t lo = 0; lo < kRunTableBits; ++lo)
        for (std::uint32_t len = 0; lo + len <= kRunTableBits; ++len) {
          const GroupMasks gm = group_masks(lo, lo + len);
          built[k][lo][len] = static_cast<std::uint8_t>(
              word_outcome(kKinds[k], gm.data, gm.check));
        }
    return built;
  }();
  for (std::size_t k = 0; k < 3; ++k)
    if (kKinds[k] == protection) return tables[k].data();
  return nullptr;
}

std::uint8_t classify_batch_strike(const BatchRegionInfo& R, Rng& rng,
                                   CampaignScratch& scratch,
                                   std::uint64_t origin, std::uint32_t flips) {
  if (R.protection == ProtectionKind::Immune)
    return static_cast<std::uint8_t>(StrikeOutcome::Masked);
  if (R.fast) [[likely]]
    return classify_fast_strike(R, rng, origin, flips);
  // ace_occupancy is 1.0 by contract, so the general path's ACE draw is
  // the no-draw arm and its outcome is the pre-ACE verdict.
  return classify_general_strike(R, rng, scratch, origin, flips);
}

}  // namespace detail

void run_campaign_chunk(const std::vector<InjectionRegion>& regions,
                        const StrikeMultiplicityModel& strikes,
                        const CampaignConfig& config,
                        CampaignShardState& state, std::uint64_t max_strikes,
                        SensitivityGrid* grid) {
  FTSPM_REQUIRE(!regions.empty(), "campaign needs at least one region");
  CampaignScratch::Batch& batch = state.scratch.batch;
  FTSPM_REQUIRE(batch.width >= 1, "batch width must be >= 1");

  const std::uint64_t end =
      std::min(config.strikes, state.done + max_strikes);
  if (end <= state.done) {
    state.done = end;
    return;
  }

  detail::build_region_table(regions, batch);

  // Flip-count cutoffs in the draw-bits domain (see make_flip_cutoffs
  // for the exactness argument).
  const detail::FlipCutoffs cuts =
      detail::make_flip_cutoffs(strikes, config.max_flips);

  // A block tallies at most `block` outcomes and flushes its packed
  // tally at the end, so capping the block at the tally's capacity
  // keeps every lane from wrapping; block width is pure scheduling.
  const std::uint32_t width =
      std::min(batch.width, OutcomeTally::kCapacity);

  // Only a grid reads per-strike state; only then are the per-slot
  // arrays filled (see the header comment).
  const bool record = grid != nullptr;
  if (record) {
    batch.region_of.resize(width);
    batch.origin.resize(width);
    batch.outcome.resize(width);
  }

  // Hot-loop locals. The generator runs as a local copy (written back
  // once per chunk, lent to out-of-line classifiers only through
  // detail::on_rng_copy) and the SoA arrays as raw pointers: the
  // outcome stores are byte stores, which the compiler must otherwise
  // assume alias the RNG state and the vectors' own bookkeeping,
  // forcing a reload of all four state words around every draw.
  const BatchRegionInfo* const region_table = batch.regions.data();
  const std::uint64_t* const pick_breaks = batch.pick_bits.data();
  const std::size_t pick_fallback = batch.pick_fallback;
  const std::size_t region_count = batch.regions.size();
  std::uint32_t* const region_of = batch.region_of.data();
  std::uint64_t* const origin_of = batch.origin.data();
  std::uint8_t* const outcome_of = batch.outcome.data();

  // One loop for both modes, instantiated per mode so tight mode
  // compiles with no trace of the per-slot stores.
  const auto run_blocks = [&](auto recording) {
    constexpr bool kRecord = decltype(recording)::value;
    Rng rng = state.rng;
    OutcomeTally tally;
    for (std::uint64_t base = state.done; base < end; base += width) {
      const auto block = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(width, end - base));

      // ---- Stages 1 and 2: draw, classify, ACE-filter, tally.
      for (std::uint32_t slot = 0; slot < block; ++slot) {
        const std::size_t ri =
            pick_region(rng, pick_breaks, region_count, pick_fallback);
        const BatchRegionInfo& R = region_table[ri];
        const std::uint64_t origin = rng.next_below(R.physical_bits);
        const std::uint32_t flips =
            detail::sample_flips_draw(rng, cuts, config.max_flips);

        std::uint8_t outcome;
        if (R.protection == ProtectionKind::Immune) {
          // The reference classify_strike early-outs before any word
          // draw, and the per-strike loop skipped the ACE draw for
          // Masked outcomes.
          outcome = static_cast<std::uint8_t>(StrikeOutcome::Masked);
        } else if (R.fast) [[likely]] {
          const std::uint8_t worst =
              classify_fast_strike(R, rng, origin, flips);
          // next_bool's three arms, resolved per region at table
          // build: 0 / 1 skip the draw, 2 consumes exactly one draw
          // compared in the draw-bits domain. Unconditional for fast
          // strikes — never Masked pre-ACE.
          std::uint8_t keep;
          if (R.ace_mode == 2)
            keep = (rng.next_u64() >> 11) < R.ace_bits ? 1 : 0;
          else
            keep = R.ace_mode;
          outcome = static_cast<std::uint8_t>(worst * keep);
        } else {
          outcome = detail::on_rng_copy(rng, [&](Rng& r) {
            return classify_general_strike(R, r, state.scratch, origin, flips);
          });
        }
        tally.add(outcome);
        if constexpr (kRecord) {
          region_of[slot] = static_cast<std::uint32_t>(ri);
          origin_of[slot] = origin;
          outcome_of[slot] = outcome;
        }
      }
      tally.flush(state.partial);
      state.partial.strikes += block;

      // ---- Stage 3: the grid sweep.
      if constexpr (kRecord) {
        for (std::uint32_t slot = 0; slot < block; ++slot)
          grid->record(region_of[slot], origin_of[slot],
                       static_cast<StrikeOutcome>(outcome_of[slot]));
      }
      state.done = base + block;
    }
    state.rng = rng;
  };
  if (record)
    run_blocks(std::true_type{});
  else
    run_blocks(std::false_type{});
  state.done = end;
}

}  // namespace ftspm
