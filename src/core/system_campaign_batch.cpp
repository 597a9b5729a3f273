// Batched hot loop of the temporal (residency-resolved) campaign.
//
// run_chunk_reference (system_campaign.cpp) resolves each strike with
// FP draws (next_discrete's subtract-scan, next_bool conversions), a
// hardware divide for the struck word, and a per-word classify. This
// file replays the identical campaign on the batch engine
// (fault/batch_engine.h), exactly as the static and recovery campaigns
// already do:
//
//  * aim draws become integer compares against per-chunk tables
//    (pick_region / FastDiv64 / sample_flips_draw), each bit-identical
//    to the Rng primitive it replaces;
//  * the residency scan runs over a flat span table with the per-block
//    ACE fraction pre-resolved into next_bool's three arms
//    (DrawBernoulli), in the same first-match order;
//  * classification goes through classify_batch_strike: <= 2-bit
//    patterns resolve from the popcount class LUT, >= 3-bit SEC-DED
//    patterns are deferred onto the block's SoA fold list and resolved
//    by one SecDedCodec::fold_syndromes pass per block instead of a
//    classify_pattern call per word.
//
// Equivalence contract: counters, grids, observer calls, and the RNG
// stream match run_chunk_reference bit for bit for every chunk
// schedule and block width. The draw schedule per strike is region,
// origin, instant, then — only when a mapped block occupies the struck
// word at that instant — multiplicity, one burned draw per struck
// codeword, and one ACE Bernoulli. The ACE draw fires exactly when the
// surface is not Immune: any flip in an occupied non-Immune word
// yields a non-Masked pre-ACE verdict (deferred >= 3-bit patterns
// included — they can never fold to Masked), and Immune words classify
// Masked without drawing, so the reference's `outcome != Masked` gate
// never depends on a still-deferred fold. Pinned by
// tests/fault/batch_engine_test.cpp and the CampaignGolden suite.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "ftspm/core/system_campaign.h"
#include "ftspm/ecc/secded_codec.h"
#include "ftspm/fault/batch_engine.h"
#include "ftspm/fault/campaign_observer.h"
#include "ftspm/fault/sensitivity.h"

namespace ftspm {

namespace {

/// One residency span, flattened for the per-strike occupancy scan:
/// the ACE fraction is resolved to draw arms once per chunk, and the
/// optional unmap index becomes a sentinel the `when < unmap_end`
/// compare handles branch-free (an instant never reaches UINT64_MAX).
struct SpanInfo {
  std::uint64_t map_index = 0;
  std::uint64_t unmap_end = UINT64_MAX;
  std::uint64_t base_word = 0;
  std::uint64_t end_word = 0;
  detail::DrawBernoulli ace;
};

}  // namespace

void TemporalCampaign::run_chunk(const CampaignConfig& config,
                                 CampaignShardState& state,
                                 std::uint64_t max_strikes,
                                 CampaignObserver* observer,
                                 SensitivityGrid* grid) const {
  const std::uint64_t end =
      std::min(config.strikes, state.done + max_strikes);
  if (end <= state.done) {
    state.done = end;
    return;
  }

  // An inert observer's on_strike is a no-op per strike; skip the
  // calls outright (same block-level check the static engine makes).
  if (observer != nullptr && !observer->active()) observer = nullptr;

  CampaignScratch::Batch& batch = state.scratch.batch;
  detail::build_region_table(surfaces_, batch);
  const detail::FlipCutoffs cuts =
      detail::make_flip_cutoffs(strikes_, config.max_flips);
  const BatchRegionInfo* const regions = batch.regions.data();
  const std::uint64_t* const pick_breaks = batch.pick_bits.data();
  const std::size_t region_count = batch.regions.size();
  const std::size_t pick_fallback = batch.pick_fallback;

  // Flatten the per-region span lists (keeping their first-match
  // order) and resolve each block's ACE fraction once.
  std::vector<SpanInfo> spans;
  std::vector<std::size_t> span_begin(region_count + 1, 0);
  {
    std::size_t total = 0;
    for (const auto& list : region_spans_) total += list.size();
    spans.reserve(total);
    for (std::size_t r = 0; r < region_count; ++r) {
      span_begin[r] = spans.size();
      for (const ResidencySpan* sp : region_spans_[r]) {
        SpanInfo info;
        info.map_index = sp->map_index;
        if (sp->unmap_index) info.unmap_end = *sp->unmap_index;
        info.base_word = sp->base_word;
        info.end_word =
            sp->base_word + program_.block(sp->block).size_words();
        info.ace = detail::make_draw_bernoulli(
            profile_.ace_fraction(program_, sp->block));
        spans.push_back(info);
      }
    }
    span_begin[region_count] = spans.size();
  }

  const std::uint32_t width =
      batch.width != 0 ? batch.width : kCampaignBatchWidth;
  batch.region_of.resize(width);
  batch.origin.resize(width);
  batch.outcome.resize(width);
  batch.ace_keep.resize(width);

  // The generator runs as a local copy, written back once per chunk and
  // lent to classify_batch_strike only through detail::on_rng_copy.
  Rng rng = state.rng;
  std::uint64_t tallies[4] = {0, 0, 0, 0};

  for (std::uint64_t base = state.done; base < end;) {
    const auto block =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(width, end - base));
    batch.fold_data.clear();
    batch.fold_check.clear();
    batch.fold_slot.clear();

    for (std::uint32_t slot = 0; slot < block; ++slot) {
      // Aim draws in the reference order: region, origin, instant.
      const std::size_t rid =
          detail::pick_region(rng, pick_breaks, region_count, pick_fallback);
      const BatchRegionInfo& R = regions[rid];
      const std::uint64_t origin = rng.next_below(R.physical_bits);
      const std::uint64_t word = R.div_codeword.divide(origin);
      const std::uint64_t when = rng.next_below(horizon_);
      batch.region_of[slot] = static_cast<std::uint32_t>(rid);
      batch.origin[slot] = origin;

      // Who holds this word at that instant? First match, span order.
      const SpanInfo* occupant = nullptr;
      for (std::size_t k = span_begin[rid]; k < span_begin[rid + 1]; ++k) {
        const SpanInfo& sp = spans[k];
        if (sp.map_index > when || when >= sp.unmap_end) continue;
        if (word < sp.base_word || word >= sp.end_word) continue;
        occupant = &sp;
        break;
      }

      std::uint8_t out = static_cast<std::uint8_t>(StrikeOutcome::Masked);
      std::uint8_t keep = 1;
      if (occupant != nullptr) {
        const std::uint32_t flips =
            detail::sample_flips_draw(rng, cuts, config.max_flips);
        out = detail::on_rng_copy(rng, [&](Rng& r) {
          return detail::classify_batch_strike(R, r, state.scratch, slot,
                                               origin, flips);
        });
        // Reference order: the ACE draw follows the classify burns and
        // fires iff the pre-ACE verdict is not Masked — which is
        // exactly "the surface is not Immune" (see file comment).
        if (R.protection != ProtectionKind::Immune)
          keep = detail::draw_bernoulli(rng, occupant->ace) ? 1 : 0;
      }
      batch.outcome[slot] = out;
      batch.ace_keep[slot] = keep;
    }

    // Deferred >= 3-bit SEC-DED patterns: one batched syndrome fold,
    // max-merged into the owning slots before the ACE keep applies.
    if (!batch.fold_data.empty()) {
      const std::size_t n = batch.fold_data.size();
      batch.fold_syndrome.resize(n);
      SecDedCodec::fold_syndromes(batch.fold_data.data(),
                                  batch.fold_check.data(), n,
                                  batch.fold_syndrome.data());
      for (std::size_t k = 0; k < n; ++k) {
        std::uint8_t& o = batch.outcome[batch.fold_slot[k]];
        o = std::max(o, detail::decode_fold_outcome(batch.fold_syndrome[k],
                                                    batch.fold_data[k]));
      }
    }

    // Tally / observe in strike order, applying the carried ACE keep.
    const bool want_slots = observer != nullptr || grid != nullptr;
    for (std::uint32_t slot = 0; slot < block; ++slot) {
      const auto o = static_cast<std::uint8_t>(batch.outcome[slot] *
                                               batch.ace_keep[slot]);
      ++tallies[o];
      if (want_slots) {
        const auto outcome = static_cast<StrikeOutcome>(o);
        if (observer != nullptr) observer->on_strike(base + slot, outcome);
        if (grid != nullptr)
          grid->record(batch.region_of[slot], batch.origin[slot], outcome);
      }
    }
    base += block;
  }

  state.partial.strikes += end - state.done;
  state.partial.masked +=
      tallies[static_cast<std::size_t>(StrikeOutcome::Masked)];
  state.partial.dre += tallies[static_cast<std::size_t>(StrikeOutcome::Dre)];
  state.partial.due += tallies[static_cast<std::size_t>(StrikeOutcome::Due)];
  state.partial.sdc += tallies[static_cast<std::size_t>(StrikeOutcome::Sdc)];
  state.rng = rng;
  state.done = end;
}

}  // namespace ftspm
