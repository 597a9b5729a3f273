#include "ftspm/fault/recovery.h"

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

void LiveArrayCampaign::ensure_shard_images(RecoveryShardSide& side) const {
  if (!side.images.empty()) return;
  side.images.resize(surfaces_.size());
  for (std::size_t r = 0; r < surfaces_.size(); ++r) {
    const InjectionRegion& region = surfaces_[r];
    if (region.protection == ProtectionKind::Immune) continue;
    const std::uint64_t words = region.geometry.words();
    RegionImage& image = side.images[r];
    image.err.assign(words, 0);
    if (region.geometry.check_bits_per_word() != 0)
      image.err_check.assign(words, 0);
    // See RegionImage for the pad.
    if (region.protection != ProtectionKind::None)
      image.syndrome.assign((words + 63) / 64 * 64, 0);
  }
}

}  // namespace ftspm
