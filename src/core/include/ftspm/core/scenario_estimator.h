// Analytic cost model for candidate mapping scenarios.
//
// Algorithm 1's threshold loops repeatedly "calculate the performance /
// power overhead of the current mapping scenario" (lines 13-22). Doing
// that with the full simulator would make MDA's inner loop quadratic in
// trace length, so — like the paper's off-line phase, which works from
// profiling information alone — this estimator prices a scenario
// analytically from the block profile:
//
//  * SPM-mapped accesses cost their region's latency/energy;
//  * unmapped accesses cost an L1 access plus an expected miss penalty;
//  * regions whose assigned blocks exceed capacity pay an estimated
//    time-sharing (DMA thrash) penalty proportional to the overflow.
//
// Overheads are measured against the paper's "ideal situation": every
// access served by 1-cycle unprotected SRAM.
#pragma once

#include <cstdint>
#include <span>

#include "ftspm/profile/profiler.h"
#include "ftspm/sim/simulator.h"
#include "ftspm/sim/spm.h"

namespace ftspm {

struct ScenarioEstimate {
  double cycles = 0.0;
  double dynamic_energy_pj = 0.0;
};

/// A scenario's overheads over its matched ideal, as fractions.
struct ScenarioOverheads {
  double performance = 0.0;
  double energy = 0.0;
};

/// Knobs of the analytic model.
struct EstimatorConfig {
  double cache_hit_rate = 0.92;   ///< Expected L1 hit rate for unmapped
                                  ///< blocks.
  double thrash_dirty_factor = 1.5;  ///< Write-back uplift on DMA words.
};

class ScenarioEstimator {
 public:
  ScenarioEstimator(const SpmLayout& layout, const SimConfig& sim,
                    const Program& program, const ProgramProfile& profile,
                    EstimatorConfig config = {});

  /// Prices one scenario. `block_to_region` uses kNoRegion for
  /// cache-served blocks.
  ScenarioEstimate estimate(std::span<const RegionId> block_to_region) const;

  /// The matched ideal for a scenario: every *mapped* block priced at
  /// 1-cycle unprotected SRAM, unmapped blocks priced exactly as in the
  /// scenario. Matching the unmapped share means the overhead ratios
  /// isolate the cost of the SPM technology choices — the quantity
  /// Algorithm 1's thresholds govern — rather than the mapping's
  /// coverage.
  ScenarioEstimate matched_ideal(
      std::span<const RegionId> block_to_region) const;

  /// Absolute floor: everything (mapped or not) at 1-cycle SRAM.
  ScenarioEstimate ideal() const noexcept { return ideal_; }

  /// (scenario - matched_ideal) / matched_ideal, for cycles and energy,
  /// from one estimate() and one matched_ideal() of the scenario.
  ScenarioOverheads overheads(std::span<const RegionId> block_to_region) const;
  /// overheads().performance and overheads().energy.
  double performance_overhead(
      std::span<const RegionId> block_to_region) const {
    return overheads(block_to_region).performance;
  }
  double energy_overhead(std::span<const RegionId> block_to_region) const {
    return overheads(block_to_region).energy;
  }

 private:
  /// LRU replay of the profiled reference sequence restricted to one
  /// region: returns the words DMA-loaded on residency faults.
  double replay_region_faults(std::span<const RegionId> block_to_region,
                              RegionId region) const;

  const SpmLayout& layout_;
  SimConfig sim_;
  const Program& program_;
  const ProgramProfile& profile_;
  EstimatorConfig config_;
  std::uint64_t compute_gap_cycles_ = 0;
  ScenarioEstimate ideal_{};
};

}  // namespace ftspm
