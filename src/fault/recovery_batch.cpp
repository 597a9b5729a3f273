// Batched hot loop of the live-array recovery campaign.
//
// The strike-at-a-time RecoveryReference (oracle/recovery_reference.h,
// in the test- and bench-only ftspm_oracle target) spends its time in
// per-strike FP draws (next_discrete's subtract-scan, next_bool
// conversions), a locate_strike_bit divide per flipped bit, and one
// classify_pattern call per decoded word. This file replays the
// identical campaign on the batch engine (batch_engine.h):
//
//  * aim draws become integer compares against the shared region table
//    the static engine builds (build_region_table into the shard's
//    CampaignScratch::Batch) — region-pick breakpoints, Bernoulli
//    thresholds, flip cutoffs — each bit-identical to the Rng
//    primitive it replaces;
//  * an uninterleaved strike deposits its flips as one XOR mask pair
//    (group_masks) per codeword run (for_each_run) instead of
//    bit-by-bit locate calls, and the struck words come out ascending
//    and unique for free;
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
// Equivalence contract: counters, grids, and the RNG stream match
// RecoveryReference::run_chunk bit for bit, for every chunk schedule,
// and the error planes equal the reference's data ^ truth and
// check ^ truth_check.
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

/// Recovery's own constants of one region, built once per campaign:
/// every repair scalar the reference's per-word resolve re-derives per
/// word, with the dirty-fraction draw pre-resolved into next_bool's
/// three arms (DrawBernoulli) and the repair costs pre-multiplied. How
/// a strike lands (geometry, dividers, ACE draw) is the aim row
/// (BatchRegionInfo) of the same index.
struct LiveArrayCampaign::RecoveryRow {
  bool has_check = false;
  bool scrub = false;
  /// run_syndrome_table(protection): null for None and Immune.
  const detail::RunSyndromeRow* syndrome_runs = nullptr;
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

LiveArrayCampaign::LiveArrayCampaign(std::vector<RecoveryRegion> regions,
                                     const StrikeMultiplicityModel& strikes,
                                     const RecoveryPolicy& policy)
    : strikes_(strikes), policy_(policy) {
  FTSPM_REQUIRE(!regions.empty(), "campaign needs at least one region");
  surfaces_.reserve(regions.size());
  rows_.reserve(regions.size());
  for (const RecoveryRegion& r : regions) {
    const RegionGeometry& g = r.inject.geometry;
    FTSPM_REQUIRE(r.dirty_fraction >= 0.0 && r.dirty_fraction <= 1.0,
                  "dirty_fraction out of [0,1]");
    FTSPM_REQUIRE((r.inject.protection != ProtectionKind::Parity &&
                   r.inject.protection != ProtectionKind::SecDed) ||
                      g.check_bits_per_word() != 0,
                  "a parity or SEC-DED region needs check bits");
    RecoveryRow b;
    b.has_check = g.check_bits_per_word() != 0;
    b.scrub = r.scrub;
    b.syndrome_runs = detail::run_syndrome_table(r.inject.protection);
    b.dirty = detail::make_draw_bernoulli(r.dirty_fraction);
    b.write_latency = r.tech.write_latency_cycles;
    b.write_energy = r.tech.write_energy_pj;
    b.scrub_read_cycles = g.words() * r.tech.read_latency_cycles;
    b.scrub_read_energy =
        static_cast<double>(g.words()) * r.tech.read_energy_pj;
    const std::uint64_t refetch_words =
        std::max<std::uint64_t>(1, r.refetch_words);
    const std::uint64_t per_word = std::max<std::uint32_t>(
        policy_.dma_word_cycles, r.tech.write_latency_cycles);
    b.refetch_cycles = policy_.dma_setup_cycles + policy_.dma_line_cycles +
                       refetch_words * per_word;
    b.refetch_energy =
        static_cast<double>(refetch_words) *
        (policy_.dram_read_energy_pj + r.tech.write_energy_pj);
    surfaces_.push_back(r.inject);
    rows_.push_back(b);
  }
}

LiveArrayCampaign::~LiveArrayCampaign() = default;

void LiveArrayCampaign::scrub_sweep_batched(
    RecoveryShardSide& side, Rng& rng, const BatchRegionInfo* aims) const {
  ++side.counters.scrub_passes;
  const auto& secded = SecDedCodec::syndrome_table();
  for (std::size_t ri = 0; ri < rows_.size(); ++ri) {
    const RecoveryRow& R = rows_[ri];
    const std::uint64_t words = aims[ri].words;
    const ProtectionKind protection = aims[ri].protection;
    if (!R.scrub) continue;
    side.counters.scrub_words += words;
    side.counters.recovery_cycles += R.scrub_read_cycles;
    side.counters.recovery_energy_pj += R.scrub_read_energy;
    // Immune arrays are swept as a retention refresh (cost only);
    // unchecked arrays cannot surface an error to the scrubber at all —
    // the reference resolves every word of both as Clean, touching
    // neither counters nor the RNG.
    if (protection == ProtectionKind::Immune ||
        protection == ProtectionKind::None)
      continue;

    RegionImage& image = side.images[ri];
    std::uint64_t* const err = image.err.data();
    std::uint8_t* const err_check = image.err_check.data();
    std::uint8_t* const syndrome = image.syndrome.data();
    const bool secded_region = protection == ProtectionKind::SecDed;
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
    for (std::uint64_t base = 0; base < words; base += 64) {
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
        // A detected word is restored: its error is zeroed. A
        // corrected one holds the decoder's output: the error with the
        // corrected data bit flipped, or with the corrected check bit
        // (the syndrome itself) flipped, which folds to a zero
        // syndrome either way; the correction is right when no data
        // error is left. Masks, not ?:, which GCC 12 turns back into
        // branches.
        const std::uint64_t keep = std::uint64_t{restore} - 1;
        const std::uint64_t corrected = err[w] ^ sd.correction_mask;
        const auto corrected_check = static_cast<std::uint8_t>(
            err_check[w] ^ (sd.correction_mask == 0 ? s : 0));
        corrections += !restore & (corrected == 0);
        err[w] = corrected & keep;
        err_check[w] = static_cast<std::uint8_t>(corrected_check & keep);
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

StrikeOutcome LiveArrayCampaign::demand_read(ProtectionKind protection,
                                             const RecoveryRow& R,
                                             RegionImage& image,
                                             std::uint64_t w,
                                             RecoveryCounters& counters,
                                             Rng& rng) const {
  static const auto& secded = SecDedCodec::syndrome_table();
  const bool recover = policy_.recover;
  ++counters.demand_reads;

  // The outcome is what the consumer saw: Masked (clean), DRE
  // (corrected or re-fetched), DUE, or SDC (a wrong value consumed
  // silently). A restore zeroes the word's error, and a consumed wrong
  // value becomes what later reads are judged against, which zeroes
  // the error the code saw. Only a correction left unwritten (recover
  // off) keeps a nonzero syndrome.
  const auto restore = [&] {
    image.err[w] = 0;
    image.err_check[w] = 0;
    image.syndrome[w] = 0;
  };
  // A detected-uncorrectable word is restored either way; with repair
  // on, the re-fetch is booked (or dirty data escalates).
  const auto handle_due = [&] {
    restore();
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

  const std::uint64_t data_err = image.err[w];
  if (protection == ProtectionKind::None) {
    // Unchecked words never see their check-half geometry (the
    // reference compares data alone); corruption is consumed.
    if (data_err == 0) return StrikeOutcome::Masked;
    ++counters.sdc_reads;
    image.err[w] = 0;
    return StrikeOutcome::Sdc;
  }
  const std::uint8_t syndrome = image.syndrome[w];
  if (protection == ProtectionKind::Parity) {
    if (syndrome != 0) return handle_due();
    // Zero syndrome: clean, or an even-flip alias consumed. The parity
    // bit's error equals the data error's parity, so both go; flips in
    // check bits past the parity bit stay, unseen by the code.
    if ((data_err | image.err_check[w]) == 0) return StrikeOutcome::Masked;
    ++counters.sdc_reads;
    image.err[w] = 0;
    image.err_check[w] = static_cast<std::uint8_t>(image.err_check[w] & ~1u);
    return StrikeOutcome::Sdc;
  }
  const SecDedCodec::SyndromeDecode& sd = secded[syndrome];
  switch (sd.status) {
    case DecodeStatus::Clean:
      // The syndrome is compute_check(err) ^ err_check, so a zero one
      // with no data error has no check error: the word is clean.
      // Otherwise it aliased to a valid codeword of the wrong data,
      // which is consumed.
      if (data_err == 0) return StrikeOutcome::Masked;
      ++counters.sdc_reads;
      restore();
      return StrikeOutcome::Sdc;
    case DecodeStatus::Corrected: {
      // The decoder's output, written back, leaves the word clean. A
      // miscorrection is then consumed; left unwritten, its error is
      // the decoder's flip, with the check part that keeps the
      // syndrome (linearity).
      const bool right = data_err == sd.correction_mask;
      if (recover) {
        restore();
        counters.recovery_cycles += R.write_latency;
        counters.recovery_energy_pj += R.write_energy;
        counters.corrections += right;
      } else if (!right) {
        image.err[w] = sd.correction_mask;
        image.err_check[w] = static_cast<std::uint8_t>(
            syndrome ^ SecDedCodec::compute_check(sd.correction_mask));
      }
      if (right) return StrikeOutcome::Dre;
      ++counters.sdc_reads;
      return StrikeOutcome::Sdc;
    }
    case DecodeStatus::Detected:
      break;
  }
  return handle_due();
}

StrikeOutcome LiveArrayCampaign::interleaved_strike(
    const BatchRegionInfo& A, const RecoveryRow& R, RegionImage& image,
    std::vector<std::uint64_t>& touched, std::uint64_t origin,
    std::uint32_t flips, RecoveryCounters& counters, Rng& rng) const {
  // Each flip lands in its own codeword, so a word's flips are not one
  // run: each is a single-bit run for the syndrome, and the struck
  // words are read once every flip has landed, ascending and unique
  // like the reference's.
  touched.clear();
  detail::for_each_interleaved_bit(
      A, origin, flips, [&](std::uint64_t word, std::uint32_t bit) {
        const detail::GroupMasks gm = detail::group_masks(bit, bit + 1);
        image.err[word] ^= gm.data;
        if (R.has_check)
          image.err_check[word] =
              static_cast<std::uint8_t>(image.err_check[word] ^ gm.check);
        if (R.syndrome_runs != nullptr)
          image.syndrome[word] ^= R.syndrome_runs[bit][1];
        touched.push_back(word);
      });
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  StrikeOutcome outcome = StrikeOutcome::Masked;
  for (const std::uint64_t w : touched)
    if (detail::draw_bernoulli(rng, A.ace))
      outcome = std::max(
          outcome, demand_read(A.protection, R, image, w, counters, rng));
  return outcome;
}

void LiveArrayCampaign::run_chunk(const CampaignConfig& config,
                                  CampaignShardState& core,
                                  RecoveryShardSide& side,
                                  std::uint64_t max_strikes,
                                  SensitivityGrid* grid) const {
  FTSPM_REQUIRE(side.images.size() == rows_.size(),
                "ensure_shard_images must run before run_chunk");
  const std::uint64_t end = std::min(config.strikes, core.done + max_strikes);
  if (end <= core.done) {
    core.done = end;
    return;
  }

  CampaignScratch::Batch& batch = core.scratch.batch;
  detail::build_region_table(surfaces_, batch);
  const BatchRegionInfo* const aims = batch.regions.data();
  const std::uint64_t* const pick_breaks = batch.pick_bits.data();
  const std::size_t region_count = batch.regions.size();
  const std::size_t pick_fallback = batch.pick_fallback;
  const detail::FlipCutoffs cuts =
      detail::make_flip_cutoffs(strikes_, kMaxFlips);

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
    const BatchRegionInfo& A = aims[ri];
    const RecoveryRow& R = rows_[ri];
    const std::uint64_t origin = rng.next_below(A.physical_bits);
    const std::uint32_t flips =
        detail::sample_flips_draw(rng, cuts, kMaxFlips);

    StrikeOutcome outcome = StrikeOutcome::Masked;
    if (A.protection == ProtectionKind::Immune) {
      // Immune cells cannot be upset.
    } else if (A.interleave == 1) {
      RegionImage& image = side.images[ri];
      std::uint64_t* const err = image.err.data();
      std::uint8_t* const err_check = image.err_check.data();
      std::uint8_t* const syndrome = image.syndrome.data();
      // Hoisted: the byte stores below may alias the rows, so per-word
      // reads of their fields would be reloaded (and branched on).
      const bool has_check = R.has_check;
      const detail::RunSyndromeRow* const syndrome_runs = R.syndrome_runs;
      const detail::DrawBernoulli ace = A.ace;
      const ProtectionKind protection = A.protection;
      // One XOR mask pair per struck word, words ascending and unique
      // by construction (matching the reference's sort + unique). Each
      // word is demand-read with probability = ACE occupancy right
      // after its own deposit — the reference's draw order, since a
      // read of word w rewrites only word w. ace mode 0 (occupancy
      // <= 0) skips every word with no draw in the reference too; the
      // flips stay latent either way.
      detail::for_each_run(A, origin, flips, [&](std::uint64_t word,
                                                 std::uint32_t lo,
                                                 std::uint32_t len) {
        const detail::GroupMasks gm = detail::group_masks(lo, lo + len);
        err[word] ^= gm.data;
        // Unconditional XOR (a zero mask when the run stays in the
        // data half) rather than a branch on gm.check; only regions
        // without a check plane skip it, and their runs never reach
        // one.
        if (has_check)
          err_check[word] =
              static_cast<std::uint8_t>(err_check[word] ^ gm.check);
        if (syndrome_runs != nullptr)
          syndrome[word] ^= syndrome_runs[lo][len];
        if (detail::draw_bernoulli(rng, ace)) {
          outcome = std::max(outcome, detail::on_rng_copy(rng, [&](Rng& r) {
                               return demand_read(protection, R, image, word,
                                                  side.counters, r);
                             }));
        }
      });
    } else {
      outcome = detail::on_rng_copy(rng, [&](Rng& r) {
        return interleaved_strike(A, R, side.images[ri], side.touched, origin,
                                  flips, side.counters, r);
      });
    }

    ++tallies[static_cast<std::size_t>(outcome)];
    if (grid != nullptr) grid->record(ri, origin, outcome);

    if (interval != 0 && --until_scrub == 0) {
      until_scrub = interval;
      detail::on_rng_copy(
          rng, [&](Rng& r) { scrub_sweep_batched(side, r, aims); });
    }
  }
  detail::flush_tallies(tallies, core.partial);
  core.rng = rng;
  core.done = end;
}

}  // namespace ftspm
