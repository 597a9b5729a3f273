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
//  * classification goes through classify_batch_strike, which reads
//    each struck word's verdict from the run-outcome table (one byte
//    per word; no mask is built) and returns the strike's final pre-ACE
//    verdict, so each strike tallies as soon as it is drawn.
//
// Equivalence contract: counters, grids, and the RNG stream match
// run_chunk_reference bit for bit for every chunk schedule. The draw
// schedule per strike is region, origin, instant, then — only when a
// mapped block occupies the struck word at that instant —
// multiplicity, one burned draw per struck codeword, and one ACE
// Bernoulli iff the pre-ACE verdict is not Masked, the reference's own
// gate. Pinned by tests/fault/batch_engine_test.cpp and the
// CampaignGolden suite.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "ftspm/core/system_campaign.h"
#include "ftspm/fault/batch_engine.h"
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
                                 SensitivityGrid* grid) const {
  const std::uint64_t end =
      std::min(config.strikes, state.done + max_strikes);
  if (end <= state.done) {
    state.done = end;
    return;
  }

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

  // The generator runs as a local copy, written back once per chunk and
  // lent to classify_batch_strike only through detail::on_rng_copy.
  Rng rng = state.rng;
  std::uint64_t tallies[4] = {0, 0, 0, 0};

  for (std::uint64_t strike = state.done; strike < end; ++strike) {
    // Aim draws in the reference order: region, origin, instant.
    const std::size_t rid =
        detail::pick_region(rng, pick_breaks, region_count, pick_fallback);
    const BatchRegionInfo& R = regions[rid];
    const std::uint64_t origin = rng.next_below(R.physical_bits);
    const std::uint64_t word = R.div_codeword.divide(origin);
    const std::uint64_t when = rng.next_below(horizon_);

    // Who holds this word at that instant? First match, span order.
    const SpanInfo* occupant = nullptr;
    for (std::size_t k = span_begin[rid]; k < span_begin[rid + 1]; ++k) {
      const SpanInfo& sp = spans[k];
      if (sp.map_index > when || when >= sp.unmap_end) continue;
      if (word < sp.base_word || word >= sp.end_word) continue;
      occupant = &sp;
      break;
    }

    std::uint8_t o = static_cast<std::uint8_t>(StrikeOutcome::Masked);
    if (occupant != nullptr) {
      const std::uint32_t flips =
          detail::sample_flips_draw(rng, cuts, config.max_flips);
      o = detail::on_rng_copy(rng, [&](Rng& r) {
        return detail::classify_batch_strike(R, r, state.scratch, origin,
                                             flips);
      });
      // Reference order: the ACE draw follows the classify burns and
      // fires iff the pre-ACE verdict is not Masked.
      if (o != static_cast<std::uint8_t>(StrikeOutcome::Masked) &&
          !detail::draw_bernoulli(rng, occupant->ace))
        o = static_cast<std::uint8_t>(StrikeOutcome::Masked);
    }
    ++tallies[o];
    if (grid != nullptr)
      grid->record(rid, origin, static_cast<StrikeOutcome>(o));
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
