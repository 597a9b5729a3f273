// Batched hot loop of the live-array recovery campaign.
//
// The strike-at-a-time RecoveryReference (oracle/recovery_reference.h,
// in the test- and bench-only ftspm_oracle target) spends its time in
// per-strike FP draws (next_discrete's subtract-scan, next_bool
// conversions), a locate_strike_bit divide per flipped bit, and one
// classify_pattern call per decoded word. This file replays the
// identical campaign on the batch engine (batch_engine.h):
//
//  * aim draws become integer compares against per-chunk tables —
//    region-pick breakpoints, Bernoulli thresholds, flip cutoffs — each
//    bit-identical to the Rng primitive it replaces;
//  * an uninterleaved strike deposits its flips as one or two XOR
//    masks (group_masks) instead of bit-by-bit locate calls, and the
//    struck words come out ascending and unique for free;
//  * every deposit also XORs the run's syndrome (run_syndrome_table)
//    into the word's cached syndrome (RegionImage::syndrome), so the
//    syndrome of each stored word is always current and nothing folds:
//    a demand read classifies its word with one syndrome-table read,
//    right after the word's own deposit;
//  * a scrub sweep scans a region's syndrome plane 8 words per load and
//    visits only the words with a nonzero syndrome, ascending. A zero-
//    syndrome word is invisible to the scrubber: clean, or an alias the
//    reference leaves latent with no counter, no draw and +0.0 energy.
//
// Equivalence contract: counters, images, grids, and the RNG stream
// match RecoveryReference::run_chunk bit for bit, for every chunk
// schedule.
// The draw schedule per strike is pick, origin, multiplicity, then
// per struck word (ascending) one ACE Bernoulli, then (only inside a
// detected-uncorrectable repair) one dirty-fraction Bernoulli;
// classification itself never draws. Resolving an uninterleaved word
// before the next word's deposit keeps that order, because resolving
// word w only ever rewrites word w. The floating-point energy
// accumulator sees the same additions in the same order (bulk scrub
// costs first, then per-word events in word order), so even
// recovery_energy_pj is bit-identical. Pinned by
// tests/fault/batch_engine_test.cpp and the CampaignGolden suite.
#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "ftspm/ecc/secded_codec.h"
#include "ftspm/fault/batch_engine.h"
#include "ftspm/fault/recovery.h"
#include "ftspm/fault/sensitivity.h"
#include "ftspm/util/bitops.h"
#include "ftspm/util/error.h"

namespace ftspm {

/// Per-chunk constants of one region: every scalar the reference's
/// per-word resolve re-derives per word, hoisted to one cache-friendly
/// row, with the draw probabilities pre-resolved into next_bool's three
/// arms (DrawBernoulli) and the repair costs pre-multiplied.
struct LiveArrayCampaign::BatchRegion {
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
  /// run_syndrome_table(protection): null for None and Immune.
  const detail::RunSyndromeRow* syndrome_runs = nullptr;
  detail::DrawBernoulli ace;    ///< inject.ace_occupancy.
  detail::DrawBernoulli dirty;  ///< dirty_fraction (DUE escalation).
  std::uint32_t write_latency = 0;
  double write_energy = 0.0;
  /// Bulk per-sweep read cost of this region (words * per-read).
  std::uint64_t scrub_read_cycles = 0;
  double scrub_read_energy = 0.0;
  /// One DMA re-fetch, exactly as the reference books it.
  std::uint64_t refetch_cycles = 0;
  double refetch_energy = 0.0;
};

/// Per-chunk constants of the batched engine: the region rows plus the
/// region-pick breakpoints and flip cutoffs.
struct LiveArrayCampaign::BatchTables {
  std::vector<BatchRegion> regions;
  std::vector<std::uint64_t> pick_bits;
  std::size_t pick_fallback = 0;
  detail::FlipCutoffs cuts;
};

namespace detail {

const RunSyndromeRow* run_syndrome_table(ProtectionKind protection) {
  using Table = std::array<RunSyndromeRow, kRunSyndromeBits>;
  static const std::array<Table, 2> tables = [] {
    std::array<Table, 2> built{};
    for (std::uint32_t lo = 0; lo < kRunSyndromeBits; ++lo)
      for (std::uint32_t len = 0; lo + len <= kRunSyndromeBits; ++len) {
        const GroupMasks gm = group_masks(lo, lo + len);
        const auto check = static_cast<std::uint8_t>(gm.check);
        built[0][lo][len] =
            static_cast<std::uint8_t>(parity64(gm.data) ^ (check & 1));
        built[1][lo][len] = static_cast<std::uint8_t>(
            SecDedCodec::compute_check(gm.data) ^ check);
      }
    return built;
  }();
  switch (protection) {
    case ProtectionKind::Parity: return tables[0].data();
    case ProtectionKind::SecDed: return tables[1].data();
    default: return nullptr;
  }
}

}  // namespace detail

namespace {

/// One bit per byte of `bytes` (bit i for byte i), set when the byte
/// is nonzero: bit 7 of (b & 0x7f) + 0x7f, or of b itself, is set iff
/// b != 0, with no carry between bytes; the multiply gathers the eight
/// bit-7s into the top byte.
inline std::uint64_t nonzero_bytes(std::uint64_t bytes) noexcept {
  constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
  const std::uint64_t high =
      (((bytes & kLow7) + kLow7) | bytes) & ~kLow7;
  return (high * 0x0002040810204081ULL) >> 56;
}

}  // namespace

void LiveArrayCampaign::build_batch_tables(BatchTables& tables,
                                           std::uint32_t max_flips) const {
  tables.regions.clear();
  tables.regions.reserve(regions_.size());
  for (const RecoveryRegion& r : regions_) {
    const RegionGeometry& g = r.inject.geometry;
    BatchRegion b;
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
    b.syndrome_runs = detail::run_syndrome_table(b.protection);
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
  const auto& secded = SecDedCodec::syndrome_table();
  for (std::size_t ri = 0; ri < tables.regions.size(); ++ri) {
    const BatchRegion& R = tables.regions[ri];
    if (!R.scrub) continue;
    side.counters.scrub_words += R.words;
    side.counters.recovery_cycles += R.scrub_read_cycles;
    side.counters.recovery_energy_pj += R.scrub_read_energy;
    // Immune arrays are swept as a retention refresh (cost only);
    // unchecked arrays cannot surface an error to the scrubber at all —
    // the reference resolves every word of both as Clean, touching
    // neither counters nor the RNG.
    if (R.protection == ProtectionKind::Immune ||
        R.protection == ProtectionKind::None)
      continue;

    RegionImage& image = side.images[ri];
    std::uint64_t* const data = image.data.data();
    std::uint8_t* const check = image.check.data();
    const std::uint64_t* const truth = image.truth.data();
    const std::uint8_t* const truth_check = image.truth_check.data();
    std::uint8_t* const syndrome = image.syndrome.data();
    const bool secded_region = R.protection == ProtectionKind::SecDed;
    // Repair cost by verdict: 0 corrected (write-back), 1 re-fetched,
    // 2 unrecoverable (nothing to book).
    const std::uint64_t cost_cycles[3] = {R.write_latency, R.refetch_cycles,
                                          0};
    const double cost_energy[3] = {R.write_energy, R.refetch_energy, 0.0};

    // The scrub engine always repairs (reference: repairs = true), so
    // every nonzero syndrome is written back and ends at zero. A
    // nonzero syndrome is Corrected or Detected, never Clean; parity
    // words are all detected. The verdicts mix unpredictably (at the
    // bulk_recovery spec a sweep visits about 485 words: 38% corrected,
    // 18% miscorrected and 43% detected), so each block of 64 words
    // runs in three branch-free passes: repair every word with a
    // nonzero syndrome, noting its verdict; draw the dirty-fraction
    // Bernoulli of each detected word; book the costs. The draws and
    // the energy's additions keep the reference's word order (a
    // detected word on dirty data adds +0.0, which leaves the
    // non-negative sum bit-identical), and the counters run in locals
    // (the image's byte stores may alias side).
    std::uint64_t corrections = 0, unrecoverable = 0, refetches = 0;
    std::uint64_t cycles = side.counters.recovery_cycles;
    double energy = side.counters.recovery_energy_pj;
    for (std::uint64_t base = 0; base < R.words; base += 64) {
      std::uint64_t live = 0;  // bit j: word base + j is not clean
      for (unsigned lane = 0; lane < 8; ++lane) {
        std::uint64_t bytes;
        std::memcpy(&bytes, syndrome + base + 8 * lane, sizeof bytes);
        live |= nonzero_bytes(bytes) << (8 * lane);
      }
      std::uint8_t detected[64];
      unsigned visited = 0, detections = 0;
      for (; live != 0; live &= live - 1) {
        const std::uint64_t w =
            base + static_cast<unsigned>(std::countr_zero(live));
        const std::uint8_t s = syndrome[w];
        const SecDedCodec::SyndromeDecode& sd = secded[s];
        const bool restore =
            !secded_region | (sd.status == DecodeStatus::Detected);
        // A detected word is restored to its clean encoding. A
        // corrected one holds the decoder's output: the data with the
        // corrected data bit flipped, or the check bits with the
        // corrected check bit (the syndrome itself) flipped. Masks,
        // not ?:, which GCC 12 turns back into branches.
        const std::uint64_t keep = std::uint64_t{restore} - 1;
        const std::uint64_t corrected_data = data[w] ^ sd.correction_mask;
        const auto corrected_check = static_cast<std::uint8_t>(
            check[w] ^ (sd.correction_mask == 0 ? s : 0));
        corrections += !restore & (corrected_data == truth[w]);
        data[w] = truth[w] ^ ((truth[w] ^ corrected_data) & keep);
        check[w] = static_cast<std::uint8_t>(
            truth_check[w] ^ ((truth_check[w] ^ corrected_check) & keep));
        syndrome[w] = 0;
        detected[visited++] = restore;
        detections += restore;
      }
      // Bit k: the block's k-th detected word holds dirty data.
      std::uint64_t dirty = 0;
      unsigned lost = 0;
      for (unsigned k = 0; k < detections; ++k) {
        const bool lose = detail::draw_bernoulli(rng, R.dirty);
        dirty |= std::uint64_t{lose} << k;
        lost += lose;
      }
      unrecoverable += lost;
      refetches += detections - lost;
      for (unsigned i = 0, k = 0; i < visited; ++i) {
        const unsigned verdict =
            detected[i] + (detected[i] & static_cast<unsigned>(dirty >> k));
        k += detected[i];
        cycles += cost_cycles[verdict];
        energy += cost_energy[verdict];
      }
    }
    side.counters.scrub_corrections += corrections;
    side.counters.unrecoverable += unrecoverable;
    side.counters.refetches += refetches;
    side.counters.recovery_cycles = cycles;
    side.counters.recovery_energy_pj = energy;
  }
}

StrikeOutcome LiveArrayCampaign::demand_read(const BatchRegion& R,
                                             RegionImage& image,
                                             std::uint64_t w,
                                             RecoveryCounters& counters,
                                             Rng& rng) const {
  static const auto& secded = SecDedCodec::syndrome_table();
  const bool recover = policy_.recover;
  ++counters.demand_reads;

  // The outcome is what the consumer saw: Masked (clean), DRE
  // (corrected or re-fetched), DUE, or SDC (a wrong value consumed
  // silently). Every rewrite keeps the word's syndrome current: a
  // restore zeroes it, and a consumed alias moves truth onto the
  // stored word's code space, which leaves it zero. Only a correction
  // left unwritten (recover off) keeps its syndrome, as the stored
  // word keeps its error.
  //
  // A detected-uncorrectable word is restored to its truth either way;
  // with repair on, the re-fetch is booked (or dirty data escalates) —
  // the reference's DUE arm verbatim.
  const auto handle_due = [&] {
    image.data[w] = image.truth[w];
    image.check[w] = image.truth_check[w];
    image.syndrome[w] = 0;
    if (!recover) return StrikeOutcome::Due;
    if (detail::draw_bernoulli(rng, R.dirty)) {
      ++counters.unrecoverable;
      return StrikeOutcome::Due;
    }
    ++counters.refetches;
    counters.recovery_cycles += R.refetch_cycles;
    counters.recovery_energy_pj += R.refetch_energy;
    return StrikeOutcome::Dre;
  };

  const std::uint64_t data_mask = image.data[w] ^ image.truth[w];
  if (R.protection == ProtectionKind::None) {
    // Unchecked words never see their check-half geometry (the
    // reference compares data alone); corruption is consumed.
    if (data_mask == 0) return StrikeOutcome::Masked;
    ++counters.sdc_reads;
    image.truth[w] = image.data[w];
    return StrikeOutcome::Sdc;
  }
  const std::uint8_t syndrome = image.syndrome[w];
  if (R.protection == ProtectionKind::Parity) {
    if (syndrome != 0) return handle_due();
    // Zero syndrome: clean, or an even-flip alias consumed — the new
    // truth's parity is the cached clean parity folded with the
    // residual's (the code is linear). Extra check bits past the
    // parity bit stay flipped, unseen by the code.
    const auto check_mask =
        static_cast<std::uint8_t>(image.check[w] ^ image.truth_check[w]);
    if ((data_mask | check_mask) == 0) return StrikeOutcome::Masked;
    ++counters.sdc_reads;
    image.truth[w] ^= data_mask;
    image.truth_check[w] =
        static_cast<std::uint8_t>(image.truth_check[w] ^ parity64(data_mask));
    return StrikeOutcome::Sdc;
  }
  const SecDedCodec::SyndromeDecode& sd = secded[syndrome];
  switch (sd.status) {
    case DecodeStatus::Clean:
      // The syndrome is compute_check(data_mask) ^ check_mask, so a
      // zero one with a zero data mask has a zero check mask: the word
      // is clean. Otherwise it aliased to a valid codeword of the wrong
      // data: the residual is the data mask itself, and its check image
      // folds into the cached truth_check (linearity).
      if (data_mask == 0) return StrikeOutcome::Masked;
      ++counters.sdc_reads;
      image.truth[w] ^= data_mask;
      image.truth_check[w] = static_cast<std::uint8_t>(
          image.truth_check[w] ^ SecDedCodec::compute_check(data_mask));
      return StrikeOutcome::Sdc;
    case DecodeStatus::Corrected: {
      const std::uint64_t residual = data_mask ^ sd.correction_mask;
      if (residual == 0) {
        // Right correction: the decoder rewrote the clean encoding
        // truth/truth_check already hold.
        if (recover) {
          image.data[w] = image.truth[w];
          image.check[w] = image.truth_check[w];
          image.syndrome[w] = 0;
          counters.recovery_cycles += R.write_latency;
          counters.recovery_energy_pj += R.write_energy;
          ++counters.corrections;
        }
        return StrikeOutcome::Dre;
      }
      // Miscorrection, then consumed: decoded becomes both the stored
      // word (when repairing) and the new truth, so one linear
      // re-encode serves both.
      const std::uint64_t decoded = image.truth[w] ^ residual;
      const auto decoded_check = static_cast<std::uint8_t>(
          image.truth_check[w] ^ SecDedCodec::compute_check(residual));
      if (recover) {
        image.data[w] = decoded;
        image.check[w] = decoded_check;
        image.syndrome[w] = 0;
        counters.recovery_cycles += R.write_latency;
        counters.recovery_energy_pj += R.write_energy;
      }
      ++counters.sdc_reads;
      image.truth[w] = decoded;
      image.truth_check[w] = decoded_check;
      return StrikeOutcome::Sdc;
    }
    case DecodeStatus::Detected:
      break;
  }
  return handle_due();
}

StrikeOutcome LiveArrayCampaign::interleaved_strike(
    const BatchRegion& R, RegionImage& image,
    std::vector<std::uint64_t>& touched, std::uint64_t origin,
    std::uint64_t flips, RecoveryCounters& counters, Rng& rng) const {
  // Each flip lands in its own codeword via the magic-multiply form of
  // locate_strike_bit's arithmetic, so a word's flips are not one run:
  // each is a single-bit run for the syndrome, and the struck words are
  // read once every flip has landed, ascending and unique like the
  // reference's.
  touched.clear();
  for (std::uint64_t k = 0; k < flips; ++k) {
    const std::uint64_t index = origin + k;
    const std::uint64_t group = R.div_group.divide(index);
    const std::uint64_t within = index - group * R.group_bits;
    const auto cw_bit =
        static_cast<std::uint32_t>(R.div_interleave.divide(within));
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
    if (R.syndrome_runs != nullptr)
      image.syndrome[word] ^= R.syndrome_runs[cw_bit][1];
    touched.push_back(word);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  StrikeOutcome outcome = StrikeOutcome::Masked;
  for (const std::uint64_t w : touched)
    if (detail::draw_bernoulli(rng, R.ace))
      outcome = std::max(outcome, demand_read(R, image, w, counters, rng));
  return outcome;
}

void LiveArrayCampaign::run_chunk(const CampaignConfig& config,
                                  CampaignShardState& core,
                                  RecoveryShardSide& side,
                                  std::uint64_t max_strikes,
                                  SensitivityGrid* grid) const {
  FTSPM_REQUIRE(side.initialized,
                "ensure_shard_images must run before run_chunk");
  const std::uint64_t end = std::min(config.strikes, core.done + max_strikes);
  if (end <= core.done) {
    core.done = end;
    return;
  }

  BatchTables tables;
  build_batch_tables(tables, config.max_flips);
  const BatchRegion* const region_table = tables.regions.data();
  const std::uint64_t* const pick_breaks = tables.pick_bits.data();
  const std::size_t region_count = tables.regions.size();
  const std::size_t pick_fallback = tables.pick_fallback;
  const detail::FlipCutoffs cuts = tables.cuts;

  // The generator runs as a local copy, written back once per chunk and
  // lent to the out-of-line demand read, interleaved strike and scrub
  // sweep only through detail::on_rng_copy, so its state stays in
  // registers.
  Rng rng = core.rng;

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
    const BatchRegion& R = region_table[ri];
    const std::uint64_t origin = rng.next_below(R.physical_bits);
    const std::uint32_t flips =
        detail::sample_flips_draw(rng, cuts, config.max_flips);
    const std::uint64_t m =
        std::min<std::uint64_t>(flips, R.physical_bits - origin);

    StrikeOutcome outcome = StrikeOutcome::Masked;
    if (R.protection == ProtectionKind::Immune) {
      // Immune cells cannot be upset.
    } else if (R.interleave == 1) {
      RegionImage& image = side.images[ri];
      std::uint64_t* const data = image.data.data();
      std::uint8_t* const check = image.check.data();
      std::uint8_t* const syndrome = image.syndrome.data();
      // Hoisted: the byte stores below may alias R, so per-word reads
      // of its fields would be reloaded (and branched on).
      const bool has_check = R.has_check;
      const detail::RunSyndromeRow* const syndrome_runs = R.syndrome_runs;
      const detail::DrawBernoulli ace = R.ace;
      // Contiguous flips split into per-codeword runs: one XOR mask
      // pair per struck word, words ascending and unique by
      // construction (matching the reference's sort + unique). Each
      // word is demand-read with probability = ACE occupancy right
      // after its own deposit — the reference's draw order, since a
      // read of word w rewrites only word w. ace mode 0 (occupancy
      // <= 0) skips every word with no draw in the reference too; the
      // flips stay latent either way.
      std::uint64_t word = R.div_codeword.divide(origin);
      auto bit = static_cast<std::uint32_t>(origin - word * R.codeword_bits);
      std::uint64_t remaining = m;
      while (remaining > 0) {
        const auto len = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(R.codeword_bits - bit, remaining));
        const detail::GroupMasks gm = detail::group_masks(bit, bit + len);
        data[word] ^= gm.data;
        // Unconditional XOR (a zero mask when the run stays in the
        // data half) rather than a branch on gm.check; only regions
        // without a check plane skip it, and their runs never reach
        // one.
        if (has_check)
          check[word] = static_cast<std::uint8_t>(check[word] ^ gm.check);
        if (syndrome_runs != nullptr)
          syndrome[word] ^= syndrome_runs[bit][len];
        if (detail::draw_bernoulli(rng, ace)) {
          outcome = std::max(outcome, detail::on_rng_copy(rng, [&](Rng& r) {
                               return demand_read(R, image, word,
                                                  side.counters, r);
                             }));
        }
        ++word;
        bit = 0;
        remaining -= len;
      }
    } else {
      outcome = detail::on_rng_copy(rng, [&](Rng& r) {
        return interleaved_strike(R, side.images[ri], side.touched, origin, m,
                                  side.counters, r);
      });
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
