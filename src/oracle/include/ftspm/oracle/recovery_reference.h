// Strike-at-a-time reference of the live-array recovery campaign.
//
// LiveArrayCampaign::run_chunk (fault/recovery_batch.cpp) is a batched
// engine: integer-domain aim draws, XOR-mask flip scatter, and demand
// decodes and scrub sweeps read from each word's cached syndrome.
// RecoveryReference is the loop it replaced — one next_discrete,
// next_bool or classify_pattern call per draw, per-bit located flips,
// per-word scrub resolution — kept as the equivalence oracle for tests
// and bench/micro_recovery. Counters, grids and the RNG stream match
// the engine bit for bit under any chunk schedule, and its data ^ truth
// and check ^ truth_check equal the engine's error planes
// (tests/fault/batch_engine_test.cpp); it is severalfold slower. It
// does not share the engine's premise that only error patterns matter:
// its images hold real encoded data beside the truth written.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ftspm/fault/injector.h"
#include "ftspm/fault/recovery.h"
#include "ftspm/fault/strike_model.h"
#include "ftspm/util/rng.h"

namespace ftspm {

/// The stored codeword image of one region: per-word data bits, check
/// bits, and the ground-truth values written. Immune regions keep no
/// image (their cells cannot be upset).
struct ReferenceImage {
  std::vector<std::uint64_t> data;
  std::vector<std::uint8_t> check;
  std::vector<std::uint64_t> truth;
  /// Check bits of a clean encoding of `truth`, kept at fill and
  /// wherever `truth` changes, so a word's error pattern is (data ^
  /// truth, check ^ truth_check). Sized like `check`.
  std::vector<std::uint8_t> truth_check;
};

/// One shard's mutable state under the reference.
struct RecoveryReferenceSide {
  std::vector<ReferenceImage> images;
  RecoveryCounters counters;
};

class RecoveryReference {
 public:
  /// The same arguments LiveArrayCampaign takes.
  RecoveryReference(std::vector<RecoveryRegion> regions,
                    const StrikeMultiplicityModel& strikes,
                    const RecoveryPolicy& policy);
  RecoveryReference(const RecoveryReference&) = delete;
  RecoveryReference& operator=(const RecoveryReference&) = delete;

  /// Fills `side`'s images with random encoded values from a stream per
  /// (shard_seed, region), never the strike stream.
  void fill_reference_images(RecoveryReferenceSide& side,
                             std::uint64_t shard_seed) const;

  /// LiveArrayCampaign::run_chunk, one strike at a time, on a side
  /// filled by fill_reference_images.
  void run_chunk(const CampaignConfig& config, CampaignShardState& core,
                 RecoveryReferenceSide& side, std::uint64_t max_strikes,
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

  WordRepair resolve_word(std::size_t region_index, ReferenceImage& image,
                          std::uint64_t word, Rng& rng,
                          RecoveryCounters& counters, bool scrub_pass) const;
  void scrub_sweep(RecoveryReferenceSide& side, Rng& rng) const;

  std::vector<RecoveryRegion> regions_;
  const StrikeMultiplicityModel& strikes_;
  RecoveryPolicy policy_;
  std::vector<double> weights_;
};

}  // namespace ftspm
