#include "ftspm/core/scenario_estimator.h"

#include <algorithm>

#include "ftspm/util/error.h"

namespace ftspm {

ScenarioEstimator::ScenarioEstimator(const SpmLayout& layout,
                                     const SimConfig& sim,
                                     const Program& program,
                                     const ProgramProfile& profile,
                                     EstimatorConfig config)
    : layout_(layout),
      sim_(sim),
      program_(program),
      profile_(profile),
      config_(config) {
  FTSPM_REQUIRE(config_.cache_hit_rate >= 0.0 && config_.cache_hit_rate <= 1.0,
                "hit rate out of [0,1]");
  FTSPM_REQUIRE(profile_.blocks.size() == program_.block_count(),
                "profile does not match program");
  // Nominal profile time charges (gap + 1) per access; the pure-compute
  // share is therefore total - accesses.
  compute_gap_cycles_ = profile_.total_cycles - profile_.total_accesses;
  ideal_.cycles = static_cast<double>(compute_gap_cycles_) +
                  static_cast<double>(profile_.total_accesses);
  ideal_.dynamic_energy_pj =
      static_cast<double>(profile_.total_accesses) *
      sim_.cache_access_energy_pj;
}

ScenarioEstimate ScenarioEstimator::estimate(
    std::span<const RegionId> block_to_region) const {
  FTSPM_REQUIRE(block_to_region.size() == program_.block_count(),
                "mapping must cover every block");
  ScenarioEstimate est;
  est.cycles = static_cast<double>(compute_gap_cycles_);

  const std::uint32_t line_words = sim_.dcache.line_bytes / 8;
  // Per-region assigned payload for the time-sharing term.
  std::vector<std::uint64_t> region_words(layout_.region_count(), 0);

  for (std::size_t i = 0; i < program_.block_count(); ++i) {
    const BlockProfile& bp = profile_.blocks[i];
    const RegionId rid = block_to_region[i];
    const double reads = static_cast<double>(bp.reads);
    const double writes = static_cast<double>(bp.writes);
    if (rid != kNoRegion) {
      const TechnologyParams& t = layout_.region(rid).tech;
      est.cycles += reads * t.read_latency_cycles +
                    writes * t.write_latency_cycles;
      est.dynamic_energy_pj +=
          reads * t.read_energy_pj + writes * t.write_energy_pj;
      region_words[rid] += program_.block(static_cast<BlockId>(i)).size_words();
    } else {
      const double accesses = reads + writes;
      const double miss = 1.0 - config_.cache_hit_rate;
      est.cycles += accesses * (sim_.dcache.hit_latency_cycles +
                                miss * sim_.dram.line_latency_cycles);
      est.dynamic_energy_pj +=
          accesses * (sim_.cache_access_energy_pj +
                      miss * line_words * sim_.dram.read_energy_pj);
    }
  }

  // Time-sharing: a region asked to hold more block bytes than it has
  // is dynamically managed at run time. Replay the profiled block-
  // reference sequence through an LRU residency model per overflowing
  // region — the same discipline the simulator's on-line phase uses —
  // to count the DMA words the sharing will cost.
  for (RegionId r = 0; r < layout_.region_count(); ++r) {
    const std::uint64_t capacity = layout_.region(r).data_words();
    if (region_words[r] <= capacity || region_words[r] == 0) continue;
    const double dma_words =
        replay_region_faults(block_to_region, r) *
        config_.thrash_dirty_factor;
    const TechnologyParams& t = layout_.region(r).tech;
    const double per_word_cycles = std::max<double>(
        sim_.dram.word_latency_cycles, t.write_latency_cycles);
    est.cycles += dma_words * per_word_cycles;
    est.dynamic_energy_pj +=
        dma_words * (sim_.dram.read_energy_pj + t.write_energy_pj);
  }
  return est;
}

double ScenarioEstimator::replay_region_faults(
    std::span<const RegionId> block_to_region, RegionId region) const {
  const std::uint64_t capacity = layout_.region(region).data_words();
  // LRU residency over the reference sequence, restricted to the
  // blocks assigned to `region`.
  std::vector<BlockId> resident;  // front = least recently used
  std::uint64_t used = 0;
  double fault_words = 0.0;
  for (BlockId id : profile_.reference_sequence) {
    if (block_to_region[id] != region) continue;
    auto it = std::find(resident.begin(), resident.end(), id);
    if (it != resident.end()) {
      resident.erase(it);
      resident.push_back(id);  // refresh recency
      continue;
    }
    const std::uint64_t need = program_.block(id).size_words();
    while (used + need > capacity && !resident.empty()) {
      used -= program_.block(resident.front()).size_words();
      resident.erase(resident.begin());
    }
    fault_words += static_cast<double>(need);
    used += need;
    resident.push_back(id);
  }
  return fault_words;
}

ScenarioEstimate ScenarioEstimator::matched_ideal(
    std::span<const RegionId> block_to_region) const {
  FTSPM_REQUIRE(block_to_region.size() == program_.block_count(),
                "mapping must cover every block");
  ScenarioEstimate est;
  est.cycles = static_cast<double>(compute_gap_cycles_);
  const std::uint32_t line_words = sim_.dcache.line_bytes / 8;
  for (std::size_t i = 0; i < program_.block_count(); ++i) {
    const BlockProfile& bp = profile_.blocks[i];
    const double accesses = static_cast<double>(bp.accesses());
    if (block_to_region[i] != kNoRegion) {
      est.cycles += accesses;  // 1-cycle unprotected SRAM
      est.dynamic_energy_pj += accesses * sim_.cache_access_energy_pj;
    } else {
      const double miss = 1.0 - config_.cache_hit_rate;
      est.cycles += accesses * (sim_.dcache.hit_latency_cycles +
                                miss * sim_.dram.line_latency_cycles);
      est.dynamic_energy_pj +=
          accesses * (sim_.cache_access_energy_pj +
                      miss * line_words * sim_.dram.read_energy_pj);
    }
  }
  return est;
}

ScenarioOverheads ScenarioEstimator::overheads(
    std::span<const RegionId> block_to_region) const {
  const ScenarioEstimate est = estimate(block_to_region);
  const ScenarioEstimate ref = matched_ideal(block_to_region);
  return {(est.cycles - ref.cycles) / ref.cycles,
          (est.dynamic_energy_pj - ref.dynamic_energy_pj) /
              ref.dynamic_energy_pj};
}

}  // namespace ftspm
