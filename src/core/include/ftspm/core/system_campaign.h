// System-level Monte-Carlo fault campaign.
//
// Bridges the mapped system to the bit-level injector: each SPM region
// becomes an injection surface whose ACE occupancy is the
// area-and-ACE-weighted share of architecturally-required bits it
// holds (capped at 1 for time-shared regions). Running a campaign over
// these surfaces (run_campaign over make_injection_regions) measures
// the same quantity `compute_system_avf` evaluates analytically — with
// the real parity/SEC-DED decoders in the loop instead of Eqs. 4-7's
// single-codeword assumption. Agreement
// between the two is asserted by tests and quantified by the
// `ablation_mc_vs_avf` bench.
#pragma once

#include <cstdint>
#include <vector>

#include "ftspm/core/mapping_plan.h"
#include "ftspm/core/transfer_schedule.h"
#include "ftspm/exec/parallel_campaign.h"
#include "ftspm/fault/injector.h"
#include "ftspm/fault/recovery.h"
#include "ftspm/profile/profiler.h"
#include "ftspm/sim/simulator.h"
#include "ftspm/sim/spm.h"

namespace ftspm {

/// One injection surface per SPM region, with occupancy derived from
/// the plan and the profiled ACE fractions.
std::vector<InjectionRegion> make_injection_regions(
    const SpmLayout& layout, const MappingPlan& plan, const Program& program,
    const ProgramProfile& profile);

/// A RecoveryPolicy whose DMA re-fetch scalars come from `sim`'s
/// transfer-cost model, so recovery campaigns book re-fetches exactly
/// as the simulator books block map-ins.
RecoveryPolicy make_recovery_policy(const SimConfig& sim, bool recover,
                                    std::uint64_t scrub_interval);

/// One recovery surface per SPM region: the injection surface from
/// make_injection_regions plus what the recovery pipeline needs —
/// the region's technology (write-back and scrub costs), the fraction
/// of mapped words that are dirty/stack (no valid off-chip copy, so a
/// DUE there is unrecoverable), the mean mapped-block size as the
/// re-fetch transfer length, and the scrub flag (SEC-DED arrays and
/// technologies with `needs_scrub`).
std::vector<RecoveryRegion> make_recovery_regions(
    const SpmLayout& layout, const MappingPlan& plan, const Program& program,
    const ProgramProfile& profile);

/// Precomputed read-only context for the temporal campaign: the
/// transfer schedule, per-region residency spans, and the injection
/// surfaces. Building it once and sharing it across shards is what
/// makes the parallel temporal campaign cheap — all members are
/// immutable after construction, so concurrent run_chunk calls on
/// distinct states are race-free.
class TemporalCampaign {
 public:
  /// Historical seed salt of the serial temporal campaign; applied to
  /// every shard seed so shard_count == 1 reproduces it exactly.
  static constexpr std::uint64_t kSeedSalt = 0x7e3a11ce;

  TemporalCampaign(const SpmLayout& layout, const MappingPlan& plan,
                   const Program& program, const ProgramProfile& profile,
                   const StrikeMultiplicityModel& strikes);
  TemporalCampaign(const TemporalCampaign&) = delete;
  TemporalCampaign& operator=(const TemporalCampaign&) = delete;

  /// Advances `state` by up to `max_strikes` temporal strikes,
  /// stopping at config.strikes. Any chunking schedule yields
  /// identical counters. `grid` (nullable, see fault/sensitivity.h)
  /// records each strike's origin and final outcome without affecting
  /// results.
  void run_chunk(const CampaignConfig& config, CampaignShardState& state,
                 std::uint64_t max_strikes,
                 SensitivityGrid* grid = nullptr) const;

  /// The original strike-at-a-time loop, kept verbatim as the oracle
  /// run_chunk (the batched engine, system_campaign_batch.cpp) is
  /// pinned against: same draws, counters, and grid records for every
  /// chunk schedule.
  void run_chunk_reference(const CampaignConfig& config,
                           CampaignShardState& state,
                           std::uint64_t max_strikes,
                           SensitivityGrid* grid = nullptr) const;

  /// The injection surfaces (one per SPM region, in region order) the
  /// campaign strikes — what make_sensitivity_grid buckets over.
  const std::vector<InjectionRegion>& surfaces() const noexcept {
    return surfaces_;
  }

 private:
  const Program& program_;
  const ProgramProfile& profile_;
  const StrikeMultiplicityModel& strikes_;
  TransferSchedule schedule_;
  std::vector<std::vector<const ResidencySpan*>> region_spans_;
  std::vector<InjectionRegion> surfaces_;
  std::vector<double> weights_;
  std::uint64_t horizon_ = 0;
};

/// Temporal campaign: instead of folding residency into a static
/// occupancy probability, each strike samples an *instant* of the
/// execution (an index into the profiled reference sequence), resolves
/// which block — if any — occupies the struck word at that instant
/// using the transfer schedule's residency spans and addresses, and
/// only then classifies the upset with the real codecs and the
/// occupant's ACE fraction. Strikes into unoccupied SPM words are
/// masked. This is the highest-fidelity reliability path in the
/// repository; the static campaign and the analytic Eqs. 1-7 are its
/// successively coarser approximations, and tests assert the three
/// agree in that order. A one-shard run of
/// run_temporal_campaign_parallel on the calling thread; `grid`
/// (nullable) accumulates every strike.
CampaignResult run_temporal_campaign(const SpmLayout& layout,
                                     const MappingPlan& plan,
                                     const Program& program,
                                     const ProgramProfile& profile,
                                     const StrikeMultiplicityModel& strikes,
                                     const CampaignConfig& config = {},
                                     SensitivityGrid* grid = nullptr);

/// Sharded/parallel run_temporal_campaign (see ftspm/exec): for a
/// fixed (seed, strikes, shard count) the merged counters are
/// bit-identical across any jobs value. `grid` as in
/// exec::run_campaign_sharded.
exec::ShardedRun run_temporal_campaign_parallel(
    const SpmLayout& layout, const MappingPlan& plan, const Program& program,
    const ProgramProfile& profile, const StrikeMultiplicityModel& strikes,
    const CampaignConfig& config, const exec::ExecConfig& exec_config,
    SensitivityGrid* grid = nullptr);

}  // namespace ftspm
