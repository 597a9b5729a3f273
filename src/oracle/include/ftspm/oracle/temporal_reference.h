// Strike-at-a-time reference of the temporal campaign.
//
// TemporalCampaign::run_chunk (core/system_campaign_batch.cpp) is a
// batched engine over a flat, precomputed span table. TemporalReference
// is the original loop it replaced: FP draws, a hardware divide for the
// struck word, a first-match scan over the transfer schedule's
// ResidencySpans, and the per-strike classify_strike. It generates its
// own schedule from the same arguments, so it shares no table with the
// engine. Counters, grids and the RNG stream match the engine bit for
// bit under any chunk schedule (tests/fault/batch_engine_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "ftspm/core/mapping_plan.h"
#include "ftspm/core/transfer_schedule.h"
#include "ftspm/fault/injector.h"
#include "ftspm/fault/strike_model.h"
#include "ftspm/profile/profiler.h"
#include "ftspm/sim/spm.h"
#include "ftspm/workload/program.h"

namespace ftspm {

class TemporalReference {
 public:
  /// The same arguments TemporalCampaign takes.
  TemporalReference(const SpmLayout& layout, const MappingPlan& plan,
                    const Program& program, const ProgramProfile& profile,
                    const StrikeMultiplicityModel& strikes);
  TemporalReference(const TemporalReference&) = delete;
  TemporalReference& operator=(const TemporalReference&) = delete;

  /// TemporalCampaign::run_chunk, one strike at a time.
  void run_chunk(const CampaignConfig& config, CampaignShardState& state,
                 std::uint64_t max_strikes,
                 SensitivityGrid* grid = nullptr) const;

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

}  // namespace ftspm
