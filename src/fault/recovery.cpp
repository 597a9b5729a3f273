#include "ftspm/fault/recovery.h"

#include <utility>

#include "ftspm/util/error.h"

namespace ftspm {

void RecoveryCounters::add(const RecoveryCounters& other) noexcept {
  demand_reads += other.demand_reads;
  corrections += other.corrections;
  scrub_passes += other.scrub_passes;
  scrub_words += other.scrub_words;
  scrub_corrections += other.scrub_corrections;
  refetches += other.refetches;
  unrecoverable += other.unrecoverable;
  sdc_reads += other.sdc_reads;
  recovery_cycles += other.recovery_cycles;
  recovery_energy_pj += other.recovery_energy_pj;
}

LiveArrayCampaign::LiveArrayCampaign(std::vector<RecoveryRegion> regions,
                                     const StrikeMultiplicityModel& strikes,
                                     const RecoveryPolicy& policy)
    : regions_(std::move(regions)), strikes_(strikes), policy_(policy) {
  FTSPM_REQUIRE(!regions_.empty(), "campaign needs at least one region");
  weights_.reserve(regions_.size());
  for (const RecoveryRegion& r : regions_) {
    FTSPM_REQUIRE(r.inject.ace_occupancy >= 0.0 && r.inject.ace_occupancy <= 1.0,
                  "ace_occupancy out of [0,1]");
    FTSPM_REQUIRE(r.inject.interleave >= 1, "interleave degree must be >= 1");
    FTSPM_REQUIRE(r.dirty_fraction >= 0.0 && r.dirty_fraction <= 1.0,
                  "dirty_fraction out of [0,1]");
    FTSPM_REQUIRE((r.inject.protection != ProtectionKind::Parity &&
                   r.inject.protection != ProtectionKind::SecDed) ||
                      r.inject.geometry.check_bits_per_word() != 0,
                  "a parity or SEC-DED region needs check bits");
    weights_.push_back(static_cast<double>(r.inject.geometry.physical_bits()));
  }
}

void LiveArrayCampaign::ensure_shard_images(RecoveryShardSide& side) const {
  if (!side.images.empty()) return;
  side.images.resize(regions_.size());
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    const RecoveryRegion& region = regions_[r];
    if (region.inject.protection == ProtectionKind::Immune) continue;
    const std::uint64_t words = region.inject.geometry.words();
    RegionImage& image = side.images[r];
    image.err.assign(words, 0);
    if (region.inject.geometry.check_bits_per_word() != 0)
      image.err_check.assign(words, 0);
    // See RegionImage for the pad.
    if (region.inject.protection != ProtectionKind::None)
      image.syndrome.assign((words + 63) / 64 * 64, 0);
  }
}

}  // namespace ftspm
