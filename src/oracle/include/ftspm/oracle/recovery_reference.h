// Strike-at-a-time reference of the live-array recovery campaign.
//
// LiveArrayCampaign::run_chunk (fault/recovery_batch.cpp) is a batched
// engine: integer-domain aim draws, XOR-mask flip scatter, and demand
// decodes and scrub sweeps read from each word's cached syndrome.
// RecoveryReference is the loop it replaced — one next_discrete,
// next_bool or classify_pattern call per draw, per-bit located flips,
// per-word scrub resolution — kept as the equivalence oracle for tests
// and bench/micro_recovery. Counters, images, grids and the RNG stream
// match the engine bit for bit under any chunk schedule
// (tests/fault/batch_engine_test.cpp); it is severalfold slower.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ftspm/fault/injector.h"
#include "ftspm/fault/recovery.h"
#include "ftspm/fault/strike_model.h"
#include "ftspm/util/rng.h"

namespace ftspm {

class RecoveryReference {
 public:
  /// The same arguments LiveArrayCampaign takes.
  RecoveryReference(std::vector<RecoveryRegion> regions,
                    const StrikeMultiplicityModel& strikes,
                    const RecoveryPolicy& policy);
  RecoveryReference(const RecoveryReference&) = delete;
  RecoveryReference& operator=(const RecoveryReference&) = delete;

  /// LiveArrayCampaign::run_chunk, one strike at a time. `side` must
  /// have been filled by LiveArrayCampaign::ensure_shard_images for a
  /// campaign over the same regions. The images' cached syndrome plane
  /// is the engine's; this loop leaves it stale.
  void run_chunk(const CampaignConfig& config, CampaignShardState& core,
                 RecoveryShardSide& side, std::uint64_t max_strikes,
                 SensitivityGrid* grid = nullptr) const;

 private:
  enum class WordRepair : std::uint8_t {
    Clean,          ///< Decoded to the right value, nothing to do.
    Corrected,      ///< SEC-DED fixed it (written back when repairing).
    Refetched,      ///< DUE repaired by a DMA re-fetch.
    Detected,       ///< DUE with demand-path repair disabled.
    Unrecoverable,  ///< DUE on dirty/stack data; block lost.
    Silent,         ///< Wrong value consumed without detection.
  };

  WordRepair resolve_word(std::size_t region_index, RegionImage& image,
                          std::uint64_t word, Rng& rng,
                          RecoveryCounters& counters, bool scrub_pass) const;
  void scrub_sweep(RecoveryShardSide& side, Rng& rng) const;

  std::vector<RecoveryRegion> regions_;
  const StrikeMultiplicityModel& strikes_;
  RecoveryPolicy policy_;
  std::vector<double> weights_;
};

}  // namespace ftspm
