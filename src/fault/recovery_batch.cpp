// Batched hot loop of the live-array recovery campaign.
//
// run_chunk_reference (recovery.cpp) spends its time in per-strike FP
// draws (next_discrete's subtract-scan, next_bool conversions), a
// locate_strike_bit divide per flipped bit, and one classify_pattern
// call per decoded word. This file replays the identical campaign on
// the batch engine (batch_engine.h):
//
//  * aim draws become integer compares against per-chunk tables —
//    region-pick breakpoints, Bernoulli thresholds, flip cutoffs — each
//    bit-identical to the Rng primitive it replaces;
//  * an uninterleaved strike deposits its flips as one or two XOR
//    masks (group_masks) instead of bit-by-bit locate calls, and the
//    struck words come out ascending and unique for free;
//  * demand decodes gather the touched words' error patterns
//    (data ^ truth, check ^ truth_check) into a small SoA and resolve
//    them through the batched codec entry points
//    (SecDedCodec::fold_syndromes / ParityCodec::fold_parity) plus the
//    syndrome LUT, instead of per-word classify_pattern calls;
//  * a scrub sweep is a contiguous fold over each region's mask pair
//    building a dirty-word bitmap — the overwhelmingly-clean words exit
//    through an auto-vectorized compare, and only set bits are gathered
//    for the batched classify.
//
// Equivalence contract: counters, images, grids, and the RNG stream
// match run_chunk_reference bit for bit, for every chunk schedule.
// The draw schedule per strike is pick, origin, multiplicity, then
// per struck word (ascending) one ACE Bernoulli, then (only inside a
// detected-uncorrectable repair) one dirty-fraction Bernoulli;
// classification itself never draws. Precomputing
// every touched word's error pattern before the ACE walk is safe
// because resolving word w only ever rewrites word w. The floating-
// point energy accumulator sees the same additions in the same order
// (bulk scrub costs first, then per-word events in word order), so
// even recovery_energy_pj is bit-identical. Pinned by
// tests/fault/batch_engine_test.cpp and the CampaignGolden suite.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "ftspm/ecc/parity_codec.h"
#include "ftspm/ecc/secded_codec.h"
#include "ftspm/fault/batch_engine.h"
#include "ftspm/fault/recovery.h"
#include "ftspm/fault/sensitivity.h"
#include "ftspm/util/bitops.h"
#include "ftspm/util/error.h"

namespace ftspm {

/// Per-chunk constants of the batched engine: every scalar resolve_word
/// re-derived per word, hoisted to one cache-friendly row per region,
/// with the draw probabilities pre-resolved into next_bool's three arms
/// (DrawBernoulli) and the repair costs pre-multiplied.
struct LiveArrayCampaign::BatchTables {
  struct Region {
    std::uint64_t physical_bits = 0;
    std::uint64_t words = 0;
    std::uint32_t codeword_bits = 0;
    std::uint32_t interleave = 1;
    std::uint64_t group_bits = 0;
    FastDiv64 div_codeword;    ///< by codeword_bits (interleave == 1).
    FastDiv64 div_group;       ///< by group_bits (interleave > 1).
    FastDiv64 div_interleave;  ///< by interleave (interleave > 1).
    ProtectionKind protection = ProtectionKind::None;
    bool has_check = false;
    bool scrub = false;
    detail::DrawBernoulli ace;    ///< inject.ace_occupancy.
    detail::DrawBernoulli dirty;  ///< dirty_fraction (DUE escalation).
    std::uint32_t write_latency = 0;
    double write_energy = 0.0;
    /// Bulk per-sweep read cost of this region (words * per-read).
    std::uint64_t scrub_read_cycles = 0;
    double scrub_read_energy = 0.0;
    /// One DMA re-fetch, exactly as handle_due books it.
    std::uint64_t refetch_cycles = 0;
    double refetch_energy = 0.0;
  };
  std::vector<Region> regions;
  std::vector<std::uint64_t> pick_bits;
  std::size_t pick_fallback = 0;
  detail::FlipCutoffs cuts;
};

namespace {

/// write_back_word(protection, image, w, image.truth[w]) without the
/// re-encode: truth_check caches the clean encoding's check bits
/// (recovery.h), so restoring a word to its ground truth is two stores.
/// Unchecked regions have no check array (write_back_word leaves it
/// alone for None too).
inline void restore_clean(ProtectionKind protection, RegionImage& image,
                          std::uint64_t word) {
  image.data[word] = image.truth[word];
  if (protection != ProtectionKind::None)
    image.check[word] = image.truth_check[word];
}

/// One-time process-wide proof of the popcount shortcuts the demand
/// walk takes for SEC-DED patterns: the Hsiao code is distance 4, so
/// every 1-bit pattern decodes back to the clean codeword (residual
/// zero — a data flip is corrected in place, a check flip leaves the
/// data intact) and every 2-bit pattern raises the detected flag.
/// Checked exhaustively against the real decoder rather than assumed,
/// mirroring how the static engine derives its popcount class LUT.
bool verify_secded_popcount_shortcuts() {
  const auto pattern = [](std::uint32_t bit, std::uint64_t& dm,
                          std::uint8_t& cm) {
    if (bit < SecDedCodec::kDataBits) {
      dm |= std::uint64_t{1} << bit;
    } else {
      cm = static_cast<std::uint8_t>(
          cm | (1u << (bit - SecDedCodec::kDataBits)));
    }
  };
  for (std::uint32_t a = 0; a < SecDedCodec::kCodewordBits; ++a) {
    std::uint64_t dm = 0;
    std::uint8_t cm = 0;
    pattern(a, dm, cm);
    const PatternDecode one = SecDedCodec::classify_pattern(dm, cm);
    FTSPM_REQUIRE(one.status == DecodeStatus::Corrected &&
                      (dm ^ one.correction_mask) == 0,
                  "SEC-DED 1-bit pattern must decode to the clean word");
    for (std::uint32_t b = a + 1; b < SecDedCodec::kCodewordBits; ++b) {
      std::uint64_t dm2 = dm;
      std::uint8_t cm2 = cm;
      pattern(b, dm2, cm2);
      FTSPM_REQUIRE(
          SecDedCodec::classify_pattern(dm2, cm2).status ==
              DecodeStatus::Detected,
          "SEC-DED 2-bit pattern must be detected");
    }
  }
  return true;
}

}  // namespace

void LiveArrayCampaign::build_batch_tables(BatchTables& tables,
                                           std::uint32_t max_flips) const {
  tables.regions.clear();
  tables.regions.reserve(regions_.size());
  for (const RecoveryRegion& r : regions_) {
    const RegionGeometry& g = r.inject.geometry;
    BatchTables::Region b;
    b.physical_bits = g.physical_bits();
    b.words = g.words();
    b.codeword_bits = g.codeword_bits();
    b.interleave = r.inject.interleave;
    b.group_bits = static_cast<std::uint64_t>(b.codeword_bits) * b.interleave;
    b.div_codeword = FastDiv64(b.codeword_bits, b.physical_bits);
    if (b.interleave > 1) {
      b.div_group = FastDiv64(b.group_bits, b.physical_bits);
      b.div_interleave = FastDiv64(b.interleave, b.group_bits);
    }
    b.protection = r.inject.protection;
    b.has_check = g.check_bits_per_word() != 0;
    b.scrub = r.scrub;
    b.ace = detail::make_draw_bernoulli(r.inject.ace_occupancy);
    b.dirty = detail::make_draw_bernoulli(r.dirty_fraction);
    b.write_latency = r.tech.write_latency_cycles;
    b.write_energy = r.tech.write_energy_pj;
    b.scrub_read_cycles = b.words * r.tech.read_latency_cycles;
    b.scrub_read_energy =
        static_cast<double>(b.words) * r.tech.read_energy_pj;
    const std::uint64_t refetch_words =
        std::max<std::uint64_t>(1, r.refetch_words);
    const std::uint64_t per_word = std::max<std::uint32_t>(
        policy_.dma_word_cycles, r.tech.write_latency_cycles);
    b.refetch_cycles = policy_.dma_setup_cycles + policy_.dma_line_cycles +
                       refetch_words * per_word;
    b.refetch_energy =
        static_cast<double>(refetch_words) *
        (policy_.dram_read_energy_pj + r.tech.write_energy_pj);
    tables.regions.push_back(b);
  }
  // next_discrete accumulated the total left to right on every strike;
  // the breakpoints must see the identical sum.
  double total = 0.0;
  for (const double w : weights_) total += w;
  detail::build_pick_bits(weights_, total, tables.pick_bits,
                          tables.pick_fallback);
  tables.cuts = detail::make_flip_cutoffs(strikes_, max_flips);
}

void LiveArrayCampaign::scrub_sweep_batched(RecoveryShardSide& side, Rng& rng,
                                            const BatchTables& tables) const {
  ++side.counters.scrub_passes;
  for (std::size_t ri = 0; ri < tables.regions.size(); ++ri) {
    const BatchTables::Region& R = tables.regions[ri];
    if (!R.scrub) continue;
    side.counters.scrub_words += R.words;
    side.counters.recovery_cycles += R.scrub_read_cycles;
    side.counters.recovery_energy_pj += R.scrub_read_energy;
    // Immune arrays are swept as a retention refresh (cost only);
    // unchecked arrays cannot surface an error to the scrubber at all —
    // the reference resolve_word returns Clean for every word of both,
    // touching neither counters nor the RNG.
    if (R.protection == ProtectionKind::Immune ||
        R.protection == ProtectionKind::None)
      continue;

    RegionImage& image = side.images[ri];
    const std::uint64_t words = R.words;
    const std::uint64_t* const data = image.data.data();
    const std::uint64_t* const truth = image.truth.data();
    const std::uint8_t* const check = image.check.data();
    const std::uint8_t* const truth_check = image.truth_check.data();

    // Contiguous fold: one pass marks the (rare) dirty words in a
    // bitmap; the clean bulk costs two loads and a compare per word.
    const std::size_t bitmap_words =
        static_cast<std::size_t>((words + 63) / 64);
    side.batch_bitmap.resize(bitmap_words);
    std::uint64_t* const bitmap = side.batch_bitmap.data();
    for (std::size_t bw = 0; bw < bitmap_words; ++bw) {
      // 64 words per bitmap entry, accumulated in a register so the
      // clean bulk is a pure load-compare-shift stream.
      const std::uint64_t lo = static_cast<std::uint64_t>(bw) << 6;
      const std::uint64_t hi = std::min<std::uint64_t>(words, lo + 64);
      std::uint64_t bits = 0;
      for (std::uint64_t w = lo; w < hi; ++w) {
        const std::uint64_t nz =
            (data[w] ^ truth[w]) |
            static_cast<std::uint64_t>(
                static_cast<std::uint8_t>(check[w] ^ truth_check[w]));
        bits |= static_cast<std::uint64_t>(nz != 0) << (w & 63);
      }
      bitmap[bw] = bits;
    }

    // Gather the dirty words (ascending, like the reference sweep) into
    // the SoA the batched classify consumes.
    side.batch_words.clear();
    side.batch_data.clear();
    side.batch_check.clear();
    for (std::size_t bw = 0; bw < bitmap_words; ++bw) {
      std::uint64_t bits = bitmap[bw];
      while (bits != 0) {
        const std::uint64_t w =
            (static_cast<std::uint64_t>(bw) << 6) +
            static_cast<std::uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
        side.batch_words.push_back(w);
        side.batch_data.push_back(data[w] ^ truth[w]);
        side.batch_check.push_back(
            static_cast<std::uint8_t>(check[w] ^ truth_check[w]));
      }
    }
    const std::size_t n = side.batch_words.size();
    if (n == 0) continue;
    side.batch_syndrome.resize(n);

    // The scrub engine always repairs (reference: repairs = true), so
    // the per-status actions below reproduce resolve_word's scrub arms.
    // Only a detected-uncorrectable word draws.
    if (R.protection == ProtectionKind::SecDed) {
      SecDedCodec::fold_syndromes(side.batch_data.data(),
                                  side.batch_check.data(), n,
                                  side.batch_syndrome.data());
      const auto& table = SecDedCodec::syndrome_table();
      // Selects, not a per-status switch: a sweep's statuses mix
      // unpredictably (at the bulk_recovery spec its dirty words are
      // about 10% clean, 34% corrected, 17% miscorrected and 39%
      // detected). Only a detected word's dirty-fraction draw still
      // branches, which keeps the draws in word order. The counters
      // run in locals (the image's byte stores may alias side), and
      // the energy sees the reference's additions in word order; a
      // word with no cost adds +0.0, which leaves the non-negative
      // sum bit-identical.
      std::uint64_t corrections = 0, unrecoverable = 0, refetches = 0;
      std::uint64_t cycles = side.counters.recovery_cycles;
      double energy = side.counters.recovery_energy_pj;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t syndrome = side.batch_syndrome[i];
        const SecDedCodec::SyndromeDecode& sd = table[syndrome];
        const std::uint64_t w = side.batch_words[i];
        const bool corrected = sd.status == DecodeStatus::Corrected;
        const bool detected = sd.status == DecodeStatus::Detected;
        // The word's error pattern once the scrub is done with it. A
        // detected word is restored to its clean encoding. A corrected
        // one holds the decoder's output: its data error is the
        // residual, and — the decoded word being a codeword of a
        // linear code — its check error is compute_check(residual),
        // which is the old check error with the corrected check bit
        // flipped back (a check-bit correction has correction_mask 0
        // and syndrome 1 << bit; a data-bit one leaves the check error
        // as found). A Clean alias keeps the pattern it has (syndrome
        // 0, correction_mask 0), so storing it back changes nothing.
        const std::uint64_t data_err =
            detected ? 0 : side.batch_data[i] ^ sd.correction_mask;
        const std::uint8_t check_err =
            detected ? std::uint8_t{0}
                     : static_cast<std::uint8_t>(
                           side.batch_check[i] ^
                           (sd.correction_mask == 0 ? syndrome : 0));
        image.data[w] = image.truth[w] ^ data_err;
        image.check[w] =
            static_cast<std::uint8_t>(image.truth_check[w] ^ check_err);
        bool dirty = false;
        if (detected) dirty = detail::draw_bernoulli(rng, R.dirty);
        const bool refetch = detected && !dirty;
        corrections += corrected && data_err == 0;
        unrecoverable += dirty;
        refetches += refetch;
        cycles += corrected ? R.write_latency
                  : refetch ? R.refetch_cycles
                            : 0;
        energy += corrected ? R.write_energy
                  : refetch ? R.refetch_energy
                            : 0.0;
      }
      side.counters.scrub_corrections += corrections;
      side.counters.unrecoverable += unrecoverable;
      side.counters.refetches += refetches;
      side.counters.recovery_cycles = cycles;
      side.counters.recovery_energy_pj = energy;
    } else {  // Parity
      ParityCodec::fold_parity(side.batch_data.data(),
                               side.batch_check.data(), n,
                               side.batch_syndrome.data());
      for (std::size_t i = 0; i < n; ++i) {
        // Even-flip aliases (zero syndrome) are invisible to the code:
        // latent, exactly like the reference.
        if (side.batch_syndrome[i] == 0) continue;
        const std::uint64_t w = side.batch_words[i];
        restore_clean(R.protection, image, w);
        if (detail::draw_bernoulli(rng, R.dirty)) {
          ++side.counters.unrecoverable;
        } else {
          ++side.counters.refetches;
          side.counters.recovery_cycles += R.refetch_cycles;
          side.counters.recovery_energy_pj += R.refetch_energy;
        }
      }
    }
  }
}

void LiveArrayCampaign::run_chunk(const CampaignConfig& config,
                                  CampaignShardState& core,
                                  RecoveryShardSide& side,
                                  std::uint64_t max_strikes,
                                  SensitivityGrid* grid) const {
  FTSPM_REQUIRE(side.initialized,
                "ensure_shard_images must run before run_chunk");
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

  const std::uint64_t end = std::min(config.strikes, core.done + max_strikes);
  if (end <= core.done) {
    core.done = end;
    return;
  }

  // Process-wide, once: prove the distance-4 popcount shortcuts the
  // demand walk takes against the real decoder before relying on them.
  static const bool secded_shortcuts_proven =
      verify_secded_popcount_shortcuts();
  (void)secded_shortcuts_proven;

  BatchTables tables;
  build_batch_tables(tables, config.max_flips);
  const BatchTables::Region* const region_table = tables.regions.data();
  const std::uint64_t* const pick_breaks = tables.pick_bits.data();
  const std::size_t region_count = tables.regions.size();
  const std::size_t pick_fallback = tables.pick_fallback;
  const detail::FlipCutoffs cuts = tables.cuts;

  // The generator runs as a local copy, written back once per chunk and
  // lent to the scrub sweep only through detail::on_rng_copy.
  Rng rng = core.rng;
  std::vector<std::uint64_t>& touched = side.touched;
  RecoveryCounters& counters = side.counters;

  // Scrub cadence as a countdown, sparing the per-strike modulo.
  const std::uint64_t interval = policy_.scrub_interval;
  std::uint64_t until_scrub =
      interval != 0 ? interval - core.done % interval : 0;

  // Outcomes tally into a branchless local array (indexed by the enum's
  // 0..3 values), flushed into core.partial once per chunk — the same
  // integer additions the per-strike switch performed, reordered.
  std::uint64_t tallies[4] = {0, 0, 0, 0};

  for (std::uint64_t s = core.done; s < end; ++s) {
    // Aim draws in the reference order: region, origin, multiplicity.
    const std::size_t ri =
        detail::pick_region(rng, pick_breaks, region_count, pick_fallback);
    const BatchTables::Region& R = region_table[ri];
    const std::uint64_t origin = rng.next_below(R.physical_bits);
    const std::uint32_t flips =
        detail::sample_flips_draw(rng, cuts, config.max_flips);

    StrikeOutcome outcome = StrikeOutcome::Masked;
    if (R.protection != ProtectionKind::Immune) {
      RegionImage& image = side.images[ri];
      // Hoisted: the check-plane byte stores below may alias R, so
      // a per-word R.has_check would be reloaded (and branched on).
      const bool has_check = R.has_check;
      touched.clear();
      const std::uint64_t m =
          std::min<std::uint64_t>(flips, R.physical_bits - origin);
      if (R.interleave == 1) {
        // Contiguous flips split into per-codeword runs: one XOR mask
        // pair per struck word, words ascending and unique by
        // construction (matching the reference's sort + unique).
        std::uint64_t word = R.div_codeword.divide(origin);
        auto bit = static_cast<std::uint32_t>(origin - word * R.codeword_bits);
        std::uint64_t remaining = m;
        while (remaining > 0) {
          const auto len = static_cast<std::uint32_t>(
              std::min<std::uint64_t>(R.codeword_bits - bit, remaining));
          const detail::GroupMasks gm = detail::group_masks(bit, bit + len);
          image.data[word] ^= gm.data;
          // Unconditional XOR (a zero mask when the run stays in the
          // data half) rather than a branch on gm.check; only regions
          // without a check plane skip it, and their runs never
          // reach one.
          if (has_check)
            image.check[word] =
                static_cast<std::uint8_t>(image.check[word] ^ gm.check);
          touched.push_back(word);
          ++word;
          bit = 0;
          remaining -= len;
        }
      } else {
        // Interleaved: each flip lands in its own codeword via the
        // magic-multiply form of locate_strike_bit's arithmetic.
        for (std::uint64_t k = 0; k < m; ++k) {
          const std::uint64_t index = origin + k;
          const std::uint64_t group = R.div_group.divide(index);
          const std::uint64_t within = index - group * R.group_bits;
          const std::uint64_t cw_bit = R.div_interleave.divide(within);
          const std::uint64_t lane = within - cw_bit * R.interleave;
          const std::uint64_t word = group * R.interleave + lane;
          if (word >= R.words) continue;  // partial final group
          if (cw_bit < RegionGeometry::kDataBitsPerWord) {
            image.data[word] ^= std::uint64_t{1} << cw_bit;
          } else {
            image.check[word] = static_cast<std::uint8_t>(
                image.check[word] ^
                (1u << (cw_bit - RegionGeometry::kDataBitsPerWord)));
          }
          touched.push_back(word);
        }
        std::sort(touched.begin(), touched.end());
        touched.erase(std::unique(touched.begin(), touched.end()),
                      touched.end());
      }

      // Demand walk. ace mode 0 (occupancy <= 0) skips every word with
      // no draw in the reference too — the flips stay latent either
      // way. Otherwise resolve the touched words through the batched
      // codec entry points. The gather + fold is deferred until the
      // first word that survives its ACE draw: classification is
      // draw-free and resolving word w only rewrites word w, so folding
      // all n patterns at the first kept word sees exactly the masks an
      // eager fold would have — and a strike whose every touched word
      // misses the ACE window (the common case at low occupancy) never
      // touches the codec at all.
      if (!touched.empty() && R.ace.mode != 0) {
        const std::size_t n = touched.size();
        if (side.batch_data.size() < n) {
          side.batch_data.resize(n);
          side.batch_check.resize(n);
          side.batch_syndrome.resize(n);
        }
        bool masks_ready = false;
        bool syndromes_ready = false;
        // Fold every gathered pattern in one batched codec call, run
        // only when a kept word actually needs its syndrome — patterns
        // of <= 2 surviving bits resolve through the distance-4
        // popcount shortcuts below, so most strikes never fold at all.
        const auto ensure_syndromes = [&]() {
          if (syndromes_ready) return;
          syndromes_ready = true;
          if (R.protection == ProtectionKind::SecDed) {
            // Syndromes are backend-invariant, and below a vector's
            // width of words the SIMD entry's setup outweighs its
            // throughput; a demand batch is almost always 1-2 words.
            if (n >= 8) {
              SecDedCodec::fold_syndromes(side.batch_data.data(),
                                          side.batch_check.data(), n,
                                          side.batch_syndrome.data());
            } else {
              SecDedCodec::fold_syndromes_scalar(side.batch_data.data(),
                                                 side.batch_check.data(), n,
                                                 side.batch_syndrome.data());
            }
          } else {
            ParityCodec::fold_parity(side.batch_data.data(),
                                     side.batch_check.data(), n,
                                     side.batch_syndrome.data());
          }
        };

        for (std::size_t i = 0; i < n; ++i) {
          if (!detail::draw_bernoulli(rng, R.ace)) continue;
          if (!masks_ready) {
            masks_ready = true;
            for (std::size_t j = 0; j < n; ++j) {
              const std::uint64_t w = touched[j];
              side.batch_data[j] = image.data[w] ^ image.truth[w];
              side.batch_check[j] =
                  has_check ? static_cast<std::uint8_t>(
                                  image.check[w] ^ image.truth_check[w])
                            : std::uint8_t{0};
            }
          }
          ++counters.demand_reads;
          const std::uint64_t w = touched[i];
          const std::uint64_t data_mask = side.batch_data[i];
          const std::uint8_t check_mask = side.batch_check[i];

          // A detected-uncorrectable word is restored to its truth
          // either way; with repair on, the re-fetch is booked (or
          // dirty data escalates) — resolve_word's handle_due verbatim.
          const auto handle_due = [&]() {
            restore_clean(R.protection, image, w);
            if (!policy_.recover) return WordRepair::Detected;
            if (detail::draw_bernoulli(rng, R.dirty)) {
              ++counters.unrecoverable;
              return WordRepair::Unrecoverable;
            }
            ++counters.refetches;
            counters.recovery_cycles += R.refetch_cycles;
            counters.recovery_energy_pj += R.refetch_energy;
            return WordRepair::Refetched;
          };

          WordRepair repair = WordRepair::Clean;
          if (R.protection == ProtectionKind::None) {
            // Unchecked words never see their check-half geometry (the
            // reference compares data alone); corruption is consumed.
            if (data_mask != 0) {
              ++counters.sdc_reads;
              image.truth[w] = image.data[w];
              repair = WordRepair::Silent;
            }
          } else if ((data_mask |
                      static_cast<std::uint64_t>(check_mask)) == 0) {
            repair = WordRepair::Clean;
          } else if (R.protection == ProtectionKind::Parity) {
            ensure_syndromes();
            if (side.batch_syndrome[i] != 0) {
              repair = handle_due();
            } else {
              // Even-flip alias consumed: the new truth's parity is the
              // cached clean parity folded with the residual's (the
              // code is linear).
              ++counters.sdc_reads;
              image.truth[w] ^= data_mask;
              image.truth_check[w] = static_cast<std::uint8_t>(
                  image.truth_check[w] ^ parity64(data_mask));
              repair = WordRepair::Silent;
            }
          } else if (int pc = std::popcount(data_mask) +
                              std::popcount(static_cast<unsigned>(check_mask));
                     pc <= 2) {  // SecDed, distance-4 shortcuts
            if (pc == 1) {
              // A single surviving flip decodes straight back to the
              // clean word (verify_secded_popcount_shortcuts) — the
              // Corrected / residual == 0 arm of the syndrome walk.
              if (policy_.recover) {
                restore_clean(R.protection, image, w);
                counters.recovery_cycles += R.write_latency;
                counters.recovery_energy_pj += R.write_energy;
                ++counters.corrections;
              }
              repair = WordRepair::Corrected;
            } else {
              // Every 2-bit pattern raises the detected flag (ditto).
              repair = handle_due();
            }
          } else {  // SecDed, >= 3 surviving bits: real syndrome
            ensure_syndromes();
            const SecDedCodec::SyndromeDecode& sd =
                SecDedCodec::syndrome_table()[side.batch_syndrome[i]];
            switch (sd.status) {
              case DecodeStatus::Clean:
                // Aliased to a valid codeword of the wrong data: the
                // residual is the data mask itself, and its check image
                // folds into the cached truth_check (linearity).
                ++counters.sdc_reads;
                image.truth[w] ^= data_mask;
                image.truth_check[w] = static_cast<std::uint8_t>(
                    image.truth_check[w] ^
                    SecDedCodec::compute_check(data_mask));
                repair = WordRepair::Silent;
                break;
              case DecodeStatus::Corrected: {
                const std::uint64_t residual =
                    data_mask ^ sd.correction_mask;
                if (residual == 0) {
                  // Right correction: the decoder rewrote the clean
                  // encoding truth/truth_check already hold.
                  if (policy_.recover) {
                    restore_clean(R.protection, image, w);
                    counters.recovery_cycles += R.write_latency;
                    counters.recovery_energy_pj += R.write_energy;
                    ++counters.corrections;
                  }
                  repair = WordRepair::Corrected;
                } else {
                  // Miscorrection, then consumed: decoded becomes both
                  // the stored word (when repairing) and the new truth,
                  // so one linear re-encode serves both.
                  const std::uint64_t decoded = image.truth[w] ^ residual;
                  const std::uint8_t decoded_check =
                      static_cast<std::uint8_t>(
                          image.truth_check[w] ^
                          SecDedCodec::compute_check(residual));
                  if (policy_.recover) {
                    image.data[w] = decoded;
                    image.check[w] = decoded_check;
                    counters.recovery_cycles += R.write_latency;
                    counters.recovery_energy_pj += R.write_energy;
                  }
                  ++counters.sdc_reads;
                  image.truth[w] = decoded;
                  image.truth_check[w] = decoded_check;
                  repair = WordRepair::Silent;
                }
                break;
              }
              case DecodeStatus::Detected:
                repair = handle_due();
                break;
            }
          }
          outcome = std::max(outcome, outcome_of(repair));
        }
      }
    }

    ++tallies[static_cast<std::size_t>(outcome)];
    if (grid != nullptr) grid->record(ri, origin, outcome);

    if (interval != 0 && --until_scrub == 0) {
      until_scrub = interval;
      detail::on_rng_copy(
          rng, [&](Rng& r) { scrub_sweep_batched(side, r, tables); });
    }
  }
  core.partial.strikes += end - core.done;
  core.partial.masked += tallies[static_cast<std::size_t>(StrikeOutcome::Masked)];
  core.partial.dre += tallies[static_cast<std::size_t>(StrikeOutcome::Dre)];
  core.partial.due += tallies[static_cast<std::size_t>(StrikeOutcome::Due)];
  core.partial.sdc += tallies[static_cast<std::size_t>(StrikeOutcome::Sdc)];
  core.rng = rng;
  core.done = end;
}

}  // namespace ftspm
