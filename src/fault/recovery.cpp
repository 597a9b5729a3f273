#include "ftspm/fault/recovery.h"

#include <utility>

#include "ftspm/ecc/parity_codec.h"
#include "ftspm/ecc/secded_codec.h"
#include "ftspm/util/error.h"

namespace ftspm {

namespace {

/// Image fill streams live at this offset within the shard's salted
/// seed space, far from the strike stream.
constexpr std::uint64_t kImageStreamBase = 0x1000;

/// Re-encodes `value` into the stored codeword (ground truth is the
/// caller's business — a hardware write-back never learns it).
void write_back_word(ProtectionKind protection, RegionImage& image,
                     std::uint64_t word, std::uint64_t value) {
  switch (protection) {
    case ProtectionKind::Immune:
      return;
    case ProtectionKind::None:
      image.data[word] = value;
      return;
    case ProtectionKind::Parity: {
      const ParityWord pw = ParityCodec::encode(value);
      image.data[word] = pw.data;
      image.check[word] = pw.parity;
      return;
    }
    case ProtectionKind::SecDed: {
      const SecDedWord sw = SecDedCodec::encode(value);
      image.data[word] = sw.data;
      image.check[word] = sw.check;
      return;
    }
  }
}

}  // namespace

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

void LiveArrayCampaign::ensure_shard_images(RecoveryShardSide& side,
                                            std::uint64_t shard_seed) const {
  if (side.initialized) return;
  side.images.assign(regions_.size(), RegionImage{});
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    const RecoveryRegion& region = regions_[r];
    if (region.inject.protection == ProtectionKind::Immune) continue;
    const std::uint64_t words = region.inject.geometry.words();
    RegionImage& image = side.images[r];
    image.data.resize(words);
    image.truth.resize(words);
    if (region.inject.geometry.check_bits_per_word() != 0) {
      image.check.resize(words);
      image.truth_check.resize(words);
    }
    // Clean words have a zero syndrome; see RegionImage for the pad.
    if (region.inject.protection != ProtectionKind::None)
      image.syndrome.assign((words + 63) / 64 * 64, 0);
    // A dedicated fill stream per (shard, region): image contents are
    // independent of the strike sequence, so enabling recovery can
    // never shift the aim draws, and every shard's array differs.
    Rng fill = Rng::for_stream(shard_seed ^ kSeedSalt, kImageStreamBase + r);
    for (std::uint64_t w = 0; w < words; ++w) {
      const std::uint64_t value = fill.next_u64();
      image.truth[w] = value;
      write_back_word(region.inject.protection, image, w, value);
      // A freshly-written word is a clean encoding of its truth.
      if (!image.truth_check.empty()) image.truth_check[w] = image.check[w];
    }
  }
  side.initialized = true;
}

}  // namespace ftspm
