#include "ftspm/core/system_campaign.h"

#include <algorithm>
#include <utility>

#include "ftspm/util/error.h"
#include "ftspm/util/rng.h"

namespace ftspm {

std::vector<InjectionRegion> make_injection_regions(
    const SpmLayout& layout, const MappingPlan& plan, const Program& program,
    const ProgramProfile& profile) {
  FTSPM_REQUIRE(plan.block_to_region().size() == program.block_count(),
                "plan does not match program");
  FTSPM_REQUIRE(profile.blocks.size() == program.block_count(),
                "profile does not match program");

  // ACE-weighted bits assigned per region (same weighting as
  // compute_system_avf, before the region-surface cap).
  std::vector<double> ace_bits(layout.region_count(), 0.0);
  for (const BlockMapping& m : plan.mappings()) {
    if (!m.mapped()) continue;
    const RegionGeometry geom = layout.region(m.region).geometry();
    ace_bits[m.region] +=
        static_cast<double>(program.block(m.block).size_words()) *
        geom.codeword_bits() *
        profile.ace_fraction(program, m.block);
  }

  std::vector<InjectionRegion> regions;
  regions.reserve(layout.region_count());
  for (RegionId r = 0; r < layout.region_count(); ++r) {
    const SpmRegionSpec& spec = layout.region(r);
    InjectionRegion region;
    region.geometry = spec.geometry();
    region.protection = spec.tech.protection;
    region.interleave = spec.interleave;
    const double surface = static_cast<double>(region.geometry.physical_bits());
    region.ace_occupancy = std::min(1.0, ace_bits[r] / surface);
    regions.push_back(region);
  }
  return regions;
}

RecoveryPolicy make_recovery_policy(const SimConfig& sim, bool recover,
                                    std::uint64_t scrub_interval) {
  RecoveryPolicy policy;
  policy.recover = recover;
  policy.scrub_interval = scrub_interval;
  policy.dma_setup_cycles = sim.dma.setup_cycles;
  policy.dma_line_cycles = sim.dram.line_latency_cycles;
  policy.dma_word_cycles = sim.dram.word_latency_cycles;
  policy.dram_read_energy_pj = sim.dram.read_energy_pj;
  return policy;
}

std::vector<RecoveryRegion> make_recovery_regions(
    const SpmLayout& layout, const MappingPlan& plan, const Program& program,
    const ProgramProfile& profile) {
  const std::vector<InjectionRegion> inject =
      make_injection_regions(layout, plan, program, profile);

  // Per-region mapped footprint: how much of it is dirty/stack data (a
  // DUE there has no valid off-chip copy) and the mean mapped-block
  // size (what one DUE re-fetch transfers).
  std::vector<double> mapped_words(layout.region_count(), 0.0);
  std::vector<double> dirty_words(layout.region_count(), 0.0);
  std::vector<std::uint64_t> mapped_blocks(layout.region_count(), 0);
  for (const BlockMapping& m : plan.mappings()) {
    if (!m.mapped()) continue;
    const Block& block = program.block(m.block);
    const double words = static_cast<double>(block.size_words());
    mapped_words[m.region] += words;
    ++mapped_blocks[m.region];
    if (block.kind == BlockKind::Stack || profile.blocks[m.block].writes > 0)
      dirty_words[m.region] += words;
  }

  std::vector<RecoveryRegion> regions;
  regions.reserve(layout.region_count());
  for (RegionId r = 0; r < layout.region_count(); ++r) {
    RecoveryRegion region;
    region.inject = inject[r];
    region.tech = layout.region(r).tech;
    if (mapped_words[r] > 0.0)
      region.dirty_fraction = dirty_words[r] / mapped_words[r];
    if (mapped_blocks[r] != 0)
      region.refetch_words = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 mapped_words[r] / static_cast<double>(mapped_blocks[r])));
    region.scrub = region.tech.protection == ProtectionKind::SecDed ||
                   region.tech.needs_scrub;
    regions.push_back(region);
  }
  return regions;
}

TemporalCampaign::TemporalCampaign(const SpmLayout& layout,
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

void TemporalCampaign::run_chunk_reference(const CampaignConfig& config,
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
      const std::uint32_t flips =
          strikes_.sample_flips(state.rng, config.max_flips);
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

CampaignResult run_temporal_campaign(const SpmLayout& layout,
                                     const MappingPlan& plan,
                                     const Program& program,
                                     const ProgramProfile& profile,
                                     const StrikeMultiplicityModel& strikes,
                                     const CampaignConfig& config,
                                     SensitivityGrid* grid) {
  return run_temporal_campaign_parallel(layout, plan, program, profile,
                                        strikes, config, exec::ExecConfig{},
                                        grid)
      .merged;
}

exec::ShardedRun run_temporal_campaign_parallel(
    const SpmLayout& layout, const MappingPlan& plan, const Program& program,
    const ProgramProfile& profile, const StrikeMultiplicityModel& strikes,
    const CampaignConfig& config, const exec::ExecConfig& exec_config,
    SensitivityGrid* grid) {
  const TemporalCampaign campaign(layout, plan, program, profile, strikes);
  SensitivityGrid own;
  SensitivityGrid* target =
      exec::sensitivity_target(grid, exec_config, campaign.surfaces(), own);
  exec::ShardedRun run = exec::run_sharded_campaign(
      config, exec_config, "temporal", TemporalCampaign::kSeedSalt, target,
      [&](const exec::CampaignShard& shard, CampaignShardState& state,
          std::uint64_t max_strikes, SensitivityGrid* shard_grid) {
        campaign.run_chunk(shard.config, state, max_strikes, shard_grid);
      });
  run.sensitivity = std::move(own);
  return run;
}

}  // namespace ftspm
