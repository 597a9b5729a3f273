#include "ftspm/core/system_campaign.h"

#include <algorithm>
#include <utility>

#include "ftspm/util/error.h"

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

CampaignResult run_temporal_campaign(const SpmLayout& layout,
                                     const MappingPlan& plan,
                                     const Program& program,
                                     const ProgramProfile& profile,
                                     const StrikeMultiplicityModel& strikes,
                                     const CampaignConfig& config,
                                     SensitivityGrid* grid,
                                     obs::Context* obs) {
  exec::ExecConfig exec;
  exec.obs = obs;
  return run_temporal_campaign_parallel(layout, plan, program, profile,
                                        strikes, config, exec, grid)
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
