// The temporal (residency-resolved) campaign engine.
//
// The strike-at-a-time TemporalReference (oracle/temporal_reference.h,
// in the test- and bench-only ftspm_oracle target) resolves each strike
// with FP draws (next_discrete's subtract-scan, next_bool conversions),
// a hardware divide for the struck word, a scan over the transfer
// schedule's ResidencySpans, and a per-word classify. This file replays
// the identical campaign on the batch engine (fault/batch_engine.h),
// exactly as the static and recovery campaigns already do:
//
//  * the constructor flattens the schedule's spans into one table,
//    region by region in first-match order, with each occupant's end
//    word and ACE fraction (pre-resolved into next_bool's three arms,
//    DrawBernoulli) filled in once per campaign;
//  * aim draws become integer compares against the shared per-chunk
//    region table (pick_region / FastDiv64 / sample_flips_draw), each
//    bit-identical to the Rng primitive it replaces;
//  * classification goes through classify_batch_strike, which reads
//    each struck word's verdict from the run-outcome table (one byte
//    per word; no mask is built) and returns the strike's final pre-ACE
//    verdict, so each strike tallies as soon as it is drawn.
//
// Equivalence contract: counters, grids, and the RNG stream match
// TemporalReference::run_chunk bit for bit for every chunk schedule.
// The draw schedule per strike is region, origin, instant, then — only
// when a mapped block occupies the struck word at that instant —
// multiplicity, one burned draw per struck codeword, and one ACE
// Bernoulli iff the pre-ACE verdict is not Masked, the reference's own
// gate. Pinned by tests/fault/batch_engine_test.cpp and the
// CampaignGolden suite.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "ftspm/core/system_campaign.h"
#include "ftspm/core/transfer_schedule.h"
#include "ftspm/fault/batch_engine.h"
#include "ftspm/fault/sensitivity.h"
#include "ftspm/util/error.h"

namespace ftspm {

/// One residency span, flattened for the per-strike occupancy scan:
/// the ACE fraction is resolved to draw arms once per campaign, and the
/// optional unmap index becomes a sentinel the `when < unmap_end`
/// compare handles branch-free (an instant never reaches UINT64_MAX).
struct TemporalCampaign::Span {
  std::uint64_t map_index = 0;
  std::uint64_t unmap_end = UINT64_MAX;
  std::uint64_t base_word = 0;
  std::uint64_t end_word = 0;
  detail::DrawBernoulli ace;
};

TemporalCampaign::TemporalCampaign(const SpmLayout& layout,
                                   const MappingPlan& plan,
                                   const Program& program,
                                   const ProgramProfile& profile,
                                   const StrikeMultiplicityModel& strikes)
    : strikes_(strikes), horizon_(profile.reference_sequence.size()) {
  FTSPM_REQUIRE(horizon_ > 0, "temporal campaign needs a non-empty trace");

  surfaces_.reserve(layout.region_count());
  for (RegionId r = 0; r < layout.region_count(); ++r) {
    const SpmRegionSpec& spec = layout.region(r);
    InjectionRegion surface;
    surface.geometry = spec.geometry();
    surface.protection = spec.tech.protection;
    surface.interleave = spec.interleave;
    surface.ace_occupancy = 1.0;  // residency resolved per strike
    surfaces_.push_back(surface);
  }

  // Region by region, each region's spans in schedule order: the
  // first-match order of the occupancy scan.
  const TransferSchedule schedule =
      TransferSchedule::generate(program, profile, plan, layout);
  spans_.reserve(schedule.spans().size());
  span_begin_.reserve(layout.region_count() + 1);
  for (RegionId r = 0; r < layout.region_count(); ++r) {
    span_begin_.push_back(spans_.size());
    for (const ResidencySpan& sp : schedule.spans()) {
      if (sp.region != r) continue;
      Span info;
      info.map_index = sp.map_index;
      if (sp.unmap_index) info.unmap_end = *sp.unmap_index;
      info.base_word = sp.base_word;
      info.end_word = sp.base_word + program.block(sp.block).size_words();
      info.ace = detail::make_draw_bernoulli(
          profile.ace_fraction(program, sp.block));
      spans_.push_back(info);
    }
  }
  span_begin_.push_back(spans_.size());
}

TemporalCampaign::~TemporalCampaign() = default;

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
  const Span* const spans = spans_.data();
  const std::size_t* const span_begin = span_begin_.data();

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
    const Span* occupant = nullptr;
    for (std::size_t k = span_begin[rid]; k < span_begin[rid + 1]; ++k) {
      const Span& sp = spans[k];
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

  detail::flush_tallies(tallies, state.partial);
  state.rng = rng;
  state.done = end;
}

}  // namespace ftspm
