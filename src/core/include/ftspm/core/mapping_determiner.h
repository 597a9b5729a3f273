// The Mapping Determiner Algorithm (MDA) — the paper's Algorithm 1.
//
// Off-line phase of FTSPM. Works purely from profiling information:
//
//  step 1  map code blocks to the STT-RAM I-SPM and every data block
//          that fits to the STT-RAM region of the D-SPM;
//  step 2  sort STT-resident data blocks by susceptibility
//          (references x lifetime);
//  step 3  while the scenario's performance overhead exceeds its
//          threshold, remove a data block from STT-RAM;
//  step 4  same loop for the energy overhead;
//  step 5  remove every data block whose write count exceeds the
//          STT-RAM write-cycles threshold (endurance);
//  step 6  split the evicted blocks around their average
//          susceptibility: more-susceptible-than-average blocks go to
//          the SEC-DED SRAM region, the rest to the parity region
//          (subject to fitting).
//
// The paper's "multi-priority" aspect — optimise for reliability,
// performance, power, or endurance "according to system requirements" —
// is realised as the eviction ordering of steps 3-4: the reliability
// priority evicts the least susceptible block (paper default); the
// other priorities evict the block whose removal buys the most of the
// prioritised resource.
//
// Documented deviation from the literal pseudo-code: step 1's code
// mapping is capacity-aware (hottest code first while the I-SPM has
// room) instead of size-fits-region only; the literal rule would
// time-share the I-SPM among all code blocks and thrash. Data blocks
// keep the paper's size-fits-region rule — the D-SPM *is* time-shared
// by the on-line phase — with the estimator's thrash term letting
// steps 3-4 price that sharing.
#pragma once

#include <cstdint>

#include "ftspm/core/mapping_plan.h"
#include "ftspm/core/scenario_estimator.h"
#include "ftspm/profile/profiler.h"
#include "ftspm/sim/simulator.h"
#include "ftspm/sim/spm.h"

namespace ftspm {

/// What steps 3-4 optimise when choosing eviction victims.
enum class OptimizationPriority : std::uint8_t {
  Reliability,  ///< Evict the least susceptible block (Algorithm 1).
  Performance,  ///< Evict the block costing the most STT write stalls.
  Power,        ///< Evict the block costing the most STT write energy.
  Endurance,    ///< Evict the most write-intensive block.
};

const char* to_string(OptimizationPriority priority) noexcept;

struct MdaThresholds {
  /// Tolerated (scenario - ideal)/ideal cycle overhead. The default
  /// admits STT-RAM's write latency for moderately write-intensive
  /// programs — in the paper's case study the threshold loops evict
  /// nothing and only the endurance filter (step 5) fires.
  double performance_overhead = 0.75;
  /// Tolerated dynamic-energy overhead over ideal.
  double energy_overhead = 0.80;
  /// Step 5: total writes a block may make and still live in STT-RAM
  /// (the paper's block-level write-cycles threshold).
  std::uint64_t write_cycles_threshold = 100'000;
  /// Step 5 extension: endurance is a per-cell phenomenon, so a block
  /// whose *hottest word* exceeds this write count is also evicted —
  /// this catches stack frames and accumulators that hammer a few
  /// words without a large block total. Set to 0 to disable and
  /// recover the paper's literal rule.
  std::uint64_t word_write_threshold = 1'000;
};

struct MdaConfig {
  MdaThresholds thresholds{};
  OptimizationPriority priority = OptimizationPriority::Reliability;
  EstimatorConfig estimator{};
};

class MappingDeterminer {
 public:
  /// `layout` must contain one instruction region and a data STT-RAM
  /// region; SEC-DED / parity data regions are optional (without them
  /// evicted blocks simply stay unmapped).
  MappingDeterminer(const SpmLayout& layout, const SimConfig& sim,
                    MdaConfig config = {});

  const MdaConfig& config() const noexcept { return config_; }

  /// Runs Algorithm 1. With `obs` set, each placement decision bumps
  /// an mda.<step> counter and, when obs->trace is set, lands on the
  /// trace's "mda" lane.
  MappingPlan determine(const Program& program, const ProgramProfile& profile,
                        obs::Context* obs = nullptr) const;

 private:
  const SpmLayout& layout_;
  SimConfig sim_;
  MdaConfig config_;
  RegionId i_region_ = kNoRegion;
  RegionId d_stt_ = kNoRegion;
  RegionId d_secded_ = kNoRegion;
  RegionId d_parity_ = kNoRegion;
};

}  // namespace ftspm
