#include "ftspm/oracle/temporal_reference.h"

#include <algorithm>

#include "ftspm/fault/sensitivity.h"
#include "ftspm/oracle/strike_oracle.h"
#include "ftspm/util/error.h"
#include "ftspm/util/rng.h"

namespace ftspm {

TemporalReference::TemporalReference(const SpmLayout& layout,
                                     const MappingPlan& plan,
                                     const Program& program,
                                     const ProgramProfile& profile,
                                     const StrikeMultiplicityModel& strikes)
    : program_(program),
      profile_(profile),
      strikes_(strikes),
      schedule_(TransferSchedule::generate(program, profile, plan, layout)) {
  horizon_ = profile.reference_sequence.size();
  FTSPM_REQUIRE(horizon_ > 0, "temporal campaign needs a non-empty trace");

  // Per-region spans plus plain injection surfaces (interleave etc.).
  // The span pointers alias schedule_.spans(), which never changes
  // after this constructor.
  region_spans_.resize(layout.region_count());
  for (const ResidencySpan& span : schedule_.spans())
    region_spans_[span.region].push_back(&span);

  surfaces_.reserve(layout.region_count());
  weights_.reserve(layout.region_count());
  for (RegionId r = 0; r < layout.region_count(); ++r) {
    const SpmRegionSpec& spec = layout.region(r);
    InjectionRegion surface;
    surface.geometry = spec.geometry();
    surface.protection = spec.tech.protection;
    surface.interleave = spec.interleave;
    surface.ace_occupancy = 1.0;  // residency resolved per strike below
    surfaces_.push_back(surface);
    weights_.push_back(static_cast<double>(surface.geometry.physical_bits()));
  }
}

void TemporalReference::run_chunk(const CampaignConfig& config,
                                  CampaignShardState& state,
                                  std::uint64_t max_strikes,
                                  SensitivityGrid* grid) const {
  const std::uint64_t end =
      std::min(config.strikes, state.done + max_strikes);
  for (std::uint64_t s = state.done; s < end; ++s) {
    const std::size_t rid = state.rng.next_discrete(weights_);
    const InjectionRegion& surface = surfaces_[rid];
    const std::uint64_t origin =
        state.rng.next_below(surface.geometry.physical_bits());
    const std::uint64_t word =
        origin / surface.geometry.codeword_bits();
    const std::uint64_t when = state.rng.next_below(horizon_);

    // Who holds this word right now?
    const ResidencySpan* occupant = nullptr;
    for (const ResidencySpan* span : region_spans_[rid]) {
      if (span->map_index > when) continue;
      if (span->unmap_index && *span->unmap_index <= when) continue;
      if (word < span->base_word ||
          word >= span->base_word + program_.block(span->block).size_words())
        continue;
      occupant = span;
      break;
    }

    StrikeOutcome outcome = StrikeOutcome::Masked;
    if (occupant != nullptr) {
      const std::uint32_t flips = strikes_.sample_flips(state.rng);
      outcome =
          classify_strike(surface, origin, flips, state.rng, state.scratch);
      if (outcome != StrikeOutcome::Masked &&
          !state.rng.next_bool(
              profile_.ace_fraction(program_, occupant->block)))
        outcome = StrikeOutcome::Masked;
    }
    switch (outcome) {
      case StrikeOutcome::Masked: ++state.partial.masked; break;
      case StrikeOutcome::Dre: ++state.partial.dre; break;
      case StrikeOutcome::Due: ++state.partial.due; break;
      case StrikeOutcome::Sdc: ++state.partial.sdc; break;
    }
    ++state.partial.strikes;
    if (grid != nullptr) grid->record(rid, origin, outcome);
  }
  state.done = end;
}

}  // namespace ftspm
