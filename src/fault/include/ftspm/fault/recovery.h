// Live-array fault campaign with recovery.
//
// The static injector (injector.h) classifies every strike against a
// throwaway codeword and forgets it. A production fault-tolerant SPM
// *recovers*: SEC-DED corrections are written back, detected-
// uncorrectable words are re-fetched from DRAM, and a scrub engine
// sweeps the arrays so latent errors cannot accumulate into multi-bit
// upsets. This module models that pipeline on the error pattern of
// every stored word (RegionImage): parity and SEC-DED are linear, so a
// decode's verdict depends on which bits are wrong, never on the value
// stored, and the model keeps no values at all:
//
//  * strikes flip bits of a word's error pattern and *stay there* until
//    something decodes the word, so errors from different strikes
//    combine in one codeword — exactly the accumulation scrubbing
//    exists to prevent;
//  * each struck word is demand-read with probability = the region's
//    ACE occupancy; the read decodes on access, corrections are written
//    back at the region's write latency/energy;
//  * a detected-uncorrectable word holding clean (re-fetchable) data is
//    repaired by a DMA transfer booked with the simulator's
//    transfer-cost formula (setup + line + words x max(DRAM word, SPM
//    write)); dirty/stack data has no valid off-chip copy and escalates
//    to `unrecoverable`;
//  * every `scrub_interval` strikes the scrub engine sweeps the regions
//    flagged for scrubbing (SEC-DED arrays and relaxed-retention
//    STT-RAM, whose TechnologyParams already budget the scrub power),
//    correcting single-bit errors and charging one read per word swept.
//
// Outcome accounting with recovery on: an ECC correction or a
// successful re-fetch counts as DRE (detected AND recovered), an
// unrecoverable DUE stays DUE, and a consumed wrong value (clean-status
// aliasing or a miscorrection) is SDC — so CampaignResult::
// vulnerability() measures *residual* vulnerability after recovery,
// which is the quantity the scrub-interval ablation trades against
// recovery energy. A consumed wrong value is what later reads are
// judged against, so the error the code saw leaves the word.
//
// Determinism: a shard's counters are a pure function of (seed,
// strikes, regions, policy) and are chunk-size invariant; the sharded
// runner merges shards in index order, so results never depend on
// --jobs. With `!policy.active()` the runner delegates to the static
// injector verbatim, reproducing its counters bit for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "ftspm/fault/injector.h"
#include "ftspm/fault/strike_model.h"
#include "ftspm/mem/technology.h"
#include "ftspm/util/rng.h"

namespace ftspm {

/// What the recovery pipeline does and what each repair costs. The DMA
/// scalars mirror sim's DmaConfig/MainMemoryConfig defaults; core's
/// make_recovery_policy() fills them from a SimConfig so campaigns book
/// re-fetches exactly as the simulator books block map-ins (fault
/// cannot link against sim, hence plain scalars here).
struct RecoveryPolicy {
  /// Decode-on-access repair of demand-read words.
  bool recover = false;
  /// Strikes between scrub sweeps; 0 disables scrubbing.
  std::uint64_t scrub_interval = 0;

  /// DMA re-fetch cost model (per transfer / per 64-bit word).
  std::uint32_t dma_setup_cycles = 16;
  std::uint32_t dma_line_cycles = 20;
  std::uint32_t dma_word_cycles = 2;
  double dram_read_energy_pj = 90.0;

  /// Anything to model beyond the static classify-and-forget campaign?
  bool active() const noexcept { return recover || scrub_interval != 0; }
};

/// One region surface plus the recovery-relevant context the static
/// InjectionRegion lacks.
struct RecoveryRegion {
  InjectionRegion inject;
  /// Latency/energy of the array (write-back and scrub-read costs).
  TechnologyParams tech;
  /// Probability a detected-uncorrectable word belongs to dirty/stack
  /// data with no valid off-chip copy (escalates to unrecoverable).
  double dirty_fraction = 0.0;
  /// Words per DMA re-fetch (the mean mapped-block size; a re-fetch
  /// restores a whole block, not one word).
  std::uint64_t refetch_words = 64;
  /// Swept by the scrub engine (SEC-DED arrays, relaxed-STT refresh).
  bool scrub = false;
};

/// Recovery-side counters of one campaign (or shard). Cycles/energy are
/// the MTTR-style overhead the pipeline spent repairing, on top of the
/// baseline access traffic.
struct RecoveryCounters {
  std::uint64_t demand_reads = 0;   ///< Struck words decoded on access.
  std::uint64_t corrections = 0;    ///< Demand-read SEC-DED write-backs.
  std::uint64_t scrub_passes = 0;
  std::uint64_t scrub_words = 0;    ///< Words swept across all passes.
  std::uint64_t scrub_corrections = 0;
  std::uint64_t refetches = 0;      ///< DUEs repaired from DRAM.
  std::uint64_t unrecoverable = 0;  ///< DUEs on dirty/stack data.
  std::uint64_t sdc_reads = 0;      ///< Wrong values consumed silently.
  std::uint64_t recovery_cycles = 0;
  double recovery_energy_pj = 0.0;

  std::uint64_t repairs() const noexcept {
    return corrections + scrub_corrections + refetches;
  }
  /// Mean cycles per successful repair (MTTR analogue; 0 if none).
  double mean_repair_cycles() const noexcept {
    return repairs() != 0
               ? static_cast<double>(recovery_cycles) /
                     static_cast<double>(repairs())
               : 0.0;
  }
  void add(const RecoveryCounters& other) noexcept;
};

/// A full recovery campaign's output: the strike classification
/// counters plus the recovery pipeline's side of the story.
struct RecoveryResult {
  CampaignResult strikes;
  RecoveryCounters recovery;
};

/// The stored state of one region as error planes: each word's error
/// pattern (the bits in which it differs from a clean encoding of the
/// value last written) and its syndrome. The planes start at zero and
/// hold no data. Immune regions keep none (their cells cannot be
/// upset).
struct RegionImage {
  std::vector<std::uint64_t> err;  ///< Data-bit error per word.
  /// Error in each word's low 8 check bits; empty when the geometry
  /// has no check bits.
  std::vector<std::uint8_t> err_check;
  /// Parity and SEC-DED regions only (empty otherwise): syndrome[w] is
  /// the syndrome of (err[w], err_check[w]) — the SEC-DED 8-bit Hsiao
  /// fold or the 0/1 parity bit. A cached derived plane: the batched
  /// engine keeps it current where a flip lands (XOR of a run-syndrome
  /// table entry, detail::run_syndrome_table) and where it rewrites a
  /// word, so a decode reads one byte instead of folding. Sized to the
  /// word count rounded up to a multiple of 64, so a scrub sweep scans
  /// it in whole blocks of 64 words, 8 per load; the pad bytes stay 0.
  std::vector<std::uint8_t> syndrome;
};

/// One shard's mutable recovery state, owned by the caller alongside
/// the shard's CampaignShardState. Cache-line aligned: neighbouring
/// sides belong to different workers and must not share a line (at
/// 128 bytes unaligned, bulk_recovery lost a fifth of its throughput
/// at two jobs).
struct alignas(64) RecoveryShardSide {
  std::vector<RegionImage> images;
  RecoveryCounters counters;
  /// Struck-word scratch of an interleaved strike (cleared per strike,
  /// capacity kept across chunks). Pure workspace, never checkpointed.
  std::vector<std::uint64_t> touched;
};

/// Immutable shared context of a live-array campaign. Safe to share
/// across shards: run_chunk only mutates the per-shard state it is
/// handed.
class LiveArrayCampaign {
 public:
  /// Seed salt of the recovery campaign kind, applied to shard seeds so
  /// recovery campaigns never share a strike sequence with static ones.
  static constexpr std::uint64_t kSeedSalt = 0x5c7ab5eedULL;

  LiveArrayCampaign(std::vector<RecoveryRegion> regions,
                    const StrikeMultiplicityModel& strikes,
                    const RecoveryPolicy& policy);
  ~LiveArrayCampaign();
  LiveArrayCampaign(const LiveArrayCampaign&) = delete;
  LiveArrayCampaign& operator=(const LiveArrayCampaign&) = delete;

  /// Sizes `side`'s zero error planes on first call; later calls are
  /// no-ops. Call it on the thread that runs the shard.
  void ensure_shard_images(RecoveryShardSide& side) const;

  /// Advances the shard by up to `max_strikes` strikes, stopping at
  /// config.strikes. Aim draws match the static campaign draw for
  /// draw; recovery draws happen strictly within a strike, so any
  /// chunking schedule yields identical counters. `grid` (nullable,
  /// see fault/sensitivity.h) records each strike's origin and final
  /// outcome without affecting results.
  ///
  /// This is the batched engine (recovery_batch.cpp): the shared
  /// strike front end (fault/batch_engine.h) aims each strike, XOR-mask
  /// flip scatter keeps each word's cached syndrome current, and demand
  /// decodes and scrub sweeps classify a word with one syndrome-table
  /// read. Counters, grids, and the RNG stream are bit-identical to the
  /// strike-at-a-time RecoveryReference (oracle/recovery_reference.h),
  /// and the error planes equal the reference's data ^ truth and
  /// check ^ truth_check — pinned by tests/fault/batch_engine_test.cpp.
  void run_chunk(const CampaignConfig& config, CampaignShardState& core,
                 RecoveryShardSide& side, std::uint64_t max_strikes,
                 SensitivityGrid* grid = nullptr) const;

 private:
  /// Recovery's own per-region constants (dirty draw, write-back,
  /// scrub and re-fetch costs, check plane, run-syndrome table), built
  /// once by the constructor. The aim rows (BatchRegionInfo) are not
  /// here: run_chunk rebuilds them into the shard's
  /// CampaignScratch::Batch with detail::build_region_table, as the
  /// static and temporal engines do, from `surfaces_`.
  struct RecoveryRow;
  /// One scrub pass over the regions flagged for scrubbing; `aims` is
  /// the chunk's aim table.
  void scrub_sweep_batched(RecoveryShardSide& side, Rng& rng,
                           const BatchRegionInfo* aims) const;
  /// The batched engine's out-of-line strike halves: the demand read of
  /// one struck word of a `protection` region, and a whole strike on an
  /// interleaved region (aim row `A`). run_chunk lends them its
  /// generator through detail::on_rng_copy.
  StrikeOutcome demand_read(ProtectionKind protection, const RecoveryRow& R,
                            RegionImage& image, std::uint64_t word,
                            RecoveryCounters& counters, Rng& rng) const;
  StrikeOutcome interleaved_strike(const BatchRegionInfo& A,
                                   const RecoveryRow& R, RegionImage& image,
                                   std::vector<std::uint64_t>& touched,
                                   std::uint64_t origin, std::uint32_t flips,
                                   RecoveryCounters& counters, Rng& rng) const;

  std::vector<InjectionRegion> surfaces_;  ///< The regions' inject halves.
  std::vector<RecoveryRow> rows_;
  const StrikeMultiplicityModel& strikes_;
  RecoveryPolicy policy_;
};

// run_recovery_campaign, the serial entry point, is a one-shard run of
// exec::run_recovery_campaign_sharded: see exec/parallel_campaign.h.

}  // namespace ftspm
