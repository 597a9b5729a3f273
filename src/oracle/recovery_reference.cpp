#include "ftspm/oracle/recovery_reference.h"

#include <algorithm>
#include <utility>

#include "ftspm/ecc/parity_codec.h"
#include "ftspm/ecc/secded_codec.h"
#include "ftspm/fault/sensitivity.h"
#include "ftspm/oracle/strike_oracle.h"
#include "ftspm/util/error.h"

namespace ftspm {

namespace {

/// Image fill streams live at this offset within the shard's salted
/// seed space, far from the strike stream.
constexpr std::uint64_t kImageStreamBase = 0x1000;

/// Deposits one physical-bit flip into the stored codeword.
void apply_flip(ReferenceImage& image, const PhysicalBit& pb) {
  if (pb.bit_in_codeword < RegionGeometry::kDataBitsPerWord) {
    image.data[pb.word_index] ^= 1ULL << pb.bit_in_codeword;
  } else {
    const std::uint32_t check_bit =
        pb.bit_in_codeword - RegionGeometry::kDataBitsPerWord;
    image.check[pb.word_index] =
        static_cast<std::uint8_t>(image.check[pb.word_index] ^
                                  (1u << check_bit));
  }
}

/// Re-encodes `value` into the stored codeword (ground truth is the
/// caller's business — a hardware write-back never learns it).
void write_back_word(ProtectionKind protection, ReferenceImage& image,
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

RecoveryReference::RecoveryReference(std::vector<RecoveryRegion> regions,
                                     const StrikeMultiplicityModel& strikes,
                                     const RecoveryPolicy& policy)
    : regions_(std::move(regions)), strikes_(strikes), policy_(policy) {
  FTSPM_REQUIRE(!regions_.empty(), "campaign needs at least one region");
  weights_.reserve(regions_.size());
  for (const RecoveryRegion& r : regions_) {
    FTSPM_REQUIRE((r.inject.protection != ProtectionKind::Parity &&
                   r.inject.protection != ProtectionKind::SecDed) ||
                      r.inject.geometry.check_bits_per_word() != 0,
                  "a parity or SEC-DED region needs check bits");
    weights_.push_back(static_cast<double>(r.inject.geometry.physical_bits()));
  }
}

void RecoveryReference::fill_reference_images(RecoveryReferenceSide& side,
                                              std::uint64_t shard_seed) const {
  side.images.assign(regions_.size(), ReferenceImage{});
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    const RecoveryRegion& region = regions_[r];
    if (region.inject.protection == ProtectionKind::Immune) continue;
    const std::uint64_t words = region.inject.geometry.words();
    ReferenceImage& image = side.images[r];
    image.data.resize(words);
    image.truth.resize(words);
    if (region.inject.geometry.check_bits_per_word() != 0)
      image.check.resize(words);
    // Every shard's array differs, and no draw of the strike stream
    // goes to the fill.
    Rng fill = Rng::for_stream(shard_seed ^ LiveArrayCampaign::kSeedSalt,
                               kImageStreamBase + r);
    for (std::uint64_t w = 0; w < words; ++w) {
      image.truth[w] = fill.next_u64();
      write_back_word(region.inject.protection, image, w, image.truth[w]);
    }
    // A freshly-written word is a clean encoding of its truth.
    image.truth_check = image.check;
  }
}

RecoveryReference::WordRepair RecoveryReference::resolve_word(
    std::size_t region_index, ReferenceImage& image, std::uint64_t word,
    Rng& rng, RecoveryCounters& counters, bool scrub_pass) const {
  const RecoveryRegion& region = regions_[region_index];
  const ProtectionKind protection = region.inject.protection;
  const TechnologyParams& tech = region.tech;
  // The scrub engine is read-correct-write hardware, so it always
  // repairs; the demand path repairs only when the policy says so.
  const bool repairs = scrub_pass || policy_.recover;

  // The corruption escaped detection: the consumer now computes with
  // this value, so it becomes the reference for later reads. The
  // cached truth_check must follow the new truth.
  auto consume_silent = [&](std::uint64_t value) {
    ++counters.sdc_reads;
    image.truth[word] = value;
    if (protection == ProtectionKind::Parity)
      image.truth_check[word] = ParityCodec::encode(value).parity;
    else if (protection == ProtectionKind::SecDed)
      image.truth_check[word] = SecDedCodec::compute_check(value);
    return WordRepair::Silent;
  };

  // A detected-uncorrectable word is re-initialized either way (each
  // failure event is charged exactly once); with repair enabled the
  // re-fetch is booked at the DMA transfer cost, and dirty/stack data —
  // which has no valid off-chip copy — escalates instead.
  auto handle_due = [&]() {
    write_back_word(protection, image, word, image.truth[word]);
    if (!repairs) return WordRepair::Detected;
    if (rng.next_bool(region.dirty_fraction)) {
      ++counters.unrecoverable;
      return WordRepair::Unrecoverable;
    }
    ++counters.refetches;
    const std::uint64_t words =
        std::max<std::uint64_t>(1, region.refetch_words);
    const std::uint64_t per_word = std::max<std::uint32_t>(
        policy_.dma_word_cycles, tech.write_latency_cycles);
    counters.recovery_cycles += policy_.dma_setup_cycles +
                                policy_.dma_line_cycles + words * per_word;
    counters.recovery_energy_pj +=
        static_cast<double>(words) *
        (policy_.dram_read_energy_pj + tech.write_energy_pj);
    return WordRepair::Refetched;
  };

  // The hot path below never materializes a decode: the stored word's
  // error pattern is (data ^ truth, check ^ truth_check) — two XORs —
  // and the codecs are linear, so classify_pattern on that pattern
  // reproduces the full decode. A clean word (the overwhelming case in
  // a scrub sweep) exits on the mask comparison alone, and the decoded
  // value, when one is needed, is truth ^ residual_mask.
  switch (protection) {
    case ProtectionKind::Immune:
      return WordRepair::Clean;
    case ProtectionKind::None: {
      const std::uint64_t data_mask = image.data[word] ^ image.truth[word];
      if (data_mask == 0) return WordRepair::Clean;
      // No check bits: a scrub sweep cannot see the error, a demand
      // read consumes it.
      if (scrub_pass) return WordRepair::Clean;
      return consume_silent(image.data[word]);
    }
    case ProtectionKind::Parity: {
      const std::uint64_t data_mask = image.data[word] ^ image.truth[word];
      const std::uint8_t check_mask = static_cast<std::uint8_t>(
          image.check[word] ^ image.truth_check[word]);
      if ((data_mask | check_mask) == 0) return WordRepair::Clean;
      const PatternDecode p =
          ParityCodec::classify_pattern(data_mask, check_mask);
      if (p.status == DecodeStatus::Detected) return handle_due();
      // Even-flip alias: invisible to the code, latent to a scrub.
      if (scrub_pass) return WordRepair::Clean;
      return consume_silent(image.truth[word] ^ p.residual_mask);
    }
    case ProtectionKind::SecDed: {
      const std::uint64_t data_mask = image.data[word] ^ image.truth[word];
      const std::uint8_t check_mask = static_cast<std::uint8_t>(
          image.check[word] ^ image.truth_check[word]);
      if ((data_mask | check_mask) == 0) return WordRepair::Clean;
      const PatternDecode p =
          SecDedCodec::classify_pattern(data_mask, check_mask);
      switch (p.status) {
        case DecodeStatus::Clean:
          // Aliased to a valid codeword of the wrong data (a zero
          // syndrome with flips present always corrupts data bits).
          if (scrub_pass) return WordRepair::Clean;  // latent
          return consume_silent(image.truth[word] ^ p.residual_mask);
        case DecodeStatus::Corrected: {
          const bool right = p.data_intact();
          const std::uint64_t decoded = image.truth[word] ^ p.residual_mask;
          if (repairs) {
            // Write what the decoder produced — right or miscorrected
            // alike, the hardware cannot tell the difference.
            write_back_word(protection, image, word, decoded);
            counters.recovery_cycles += tech.write_latency_cycles;
            counters.recovery_energy_pj += tech.write_energy_pj;
            if (right) {
              if (scrub_pass)
                ++counters.scrub_corrections;
              else
                ++counters.corrections;
            }
          }
          if (right) return WordRepair::Corrected;
          // Miscorrection: the stored word is now self-consistent
          // wrong data. A scrub leaves it latent (nothing consumed
          // it yet); a demand read consumes it.
          if (scrub_pass) return WordRepair::Clean;
          return consume_silent(decoded);
        }
        case DecodeStatus::Detected:
          return handle_due();
      }
      return WordRepair::Clean;
    }
  }
  throw InvalidArgument("unknown protection kind");
}

void RecoveryReference::scrub_sweep(RecoveryReferenceSide& side,
                                    Rng& rng) const {
  ++side.counters.scrub_passes;
  for (std::size_t ri = 0; ri < regions_.size(); ++ri) {
    const RecoveryRegion& region = regions_[ri];
    if (!region.scrub) continue;
    const std::uint64_t words = region.inject.geometry.words();
    side.counters.scrub_words += words;
    side.counters.recovery_cycles += words * region.tech.read_latency_cycles;
    side.counters.recovery_energy_pj +=
        static_cast<double>(words) * region.tech.read_energy_pj;
    // Immune arrays (relaxed-retention STT-RAM) are swept as a
    // retention refresh: the read cost is real, but there is no
    // codeword image to repair.
    if (region.inject.protection == ProtectionKind::Immune) continue;
    ReferenceImage& image = side.images[ri];
    for (std::uint64_t w = 0; w < words; ++w)
      resolve_word(ri, image, w, rng, side.counters, /*scrub_pass=*/true);
  }
}

void RecoveryReference::run_chunk(const CampaignConfig& config,
                                  CampaignShardState& core,
                                  RecoveryReferenceSide& side,
                                  std::uint64_t max_strikes,
                                  SensitivityGrid* grid) const {
  FTSPM_REQUIRE(side.images.size() == regions_.size(),
                "fill_reference_images must run before run_chunk");
  const auto outcome_of = [](WordRepair repair) {
    switch (repair) {
      case WordRepair::Clean: return StrikeOutcome::Masked;
      case WordRepair::Corrected: return StrikeOutcome::Dre;
      case WordRepair::Refetched: return StrikeOutcome::Dre;
      case WordRepair::Detected: return StrikeOutcome::Due;
      case WordRepair::Unrecoverable: return StrikeOutcome::Due;
      case WordRepair::Silent: return StrikeOutcome::Sdc;
    }
    return StrikeOutcome::Masked;
  };

  std::vector<std::uint64_t> touched;
  const std::uint64_t end = std::min(config.strikes, core.done + max_strikes);
  for (std::uint64_t s = core.done; s < end; ++s) {
    // Aim draws in the static campaign's order (region, origin,
    // multiplicity); recovery draws only ever happen after them,
    // within the strike.
    const std::size_t ri = core.rng.next_discrete(weights_);
    const RecoveryRegion& region = regions_[ri];
    const std::uint64_t surface = region.inject.geometry.physical_bits();
    const std::uint64_t origin = core.rng.next_below(surface);
    const std::uint32_t flips =
        strikes_.sample_flips(core.rng, config.max_flips);

    StrikeOutcome outcome = StrikeOutcome::Masked;
    if (region.inject.protection != ProtectionKind::Immune) {
      ReferenceImage& image = side.images[ri];
      touched.clear();
      for (std::uint32_t k = 0; k < flips && origin + k < surface; ++k) {
        const PhysicalBit pb = locate_strike_bit(region.inject, origin + k);
        if (pb.word_index >= region.inject.geometry.words()) continue;
        apply_flip(image, pb);
        touched.push_back(pb.word_index);
      }
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()),
                    touched.end());
      // Each struck word is demand-read (and decoded) before the next
      // scrub with probability = ACE occupancy; the rest stay latent
      // in the array, free to combine with later strikes.
      for (const std::uint64_t w : touched) {
        if (!core.rng.next_bool(region.inject.ace_occupancy)) continue;
        ++side.counters.demand_reads;
        const WordRepair repair = resolve_word(ri, image, w, core.rng,
                                               side.counters,
                                               /*scrub_pass=*/false);
        outcome = std::max(outcome, outcome_of(repair));
      }
    }

    switch (outcome) {
      case StrikeOutcome::Masked: ++core.partial.masked; break;
      case StrikeOutcome::Dre: ++core.partial.dre; break;
      case StrikeOutcome::Due: ++core.partial.due; break;
      case StrikeOutcome::Sdc: ++core.partial.sdc; break;
    }
    ++core.partial.strikes;
    if (grid != nullptr) grid->record(ri, origin, outcome);

    if (policy_.scrub_interval != 0 &&
        (s + 1) % policy_.scrub_interval == 0)
      scrub_sweep(side, core.rng);
  }
  core.done = end;
}

}  // namespace ftspm
