// Monte-Carlo fault injection with real codecs.
//
// Where the AVF equations *assume* what parity and SEC-DED do under
// 1/2/3/>3-bit upsets, the injector finds out: each simulated strike
// flips `m` physically adjacent bits of a region surface holding real
// encoded codewords, runs the real decoders, and classifies the outcome
// against ground truth. Differences from the analytic model are real
// physics, not bugs:
//
//  * an MBU that straddles a codeword boundary splits into smaller
//    per-word errors (two adjacent single-bit errors -> both corrected),
//    so measured SDC/DUE sit *below* the analytic Eqs. 6-7;
//  * with bit interleaving (interleave > 1) an m-bit MBU scatters into
//    m different codewords and SEC-DED corrects all of them — the
//    classic mitigation, exposed here as an ablation knob.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "ftspm/ecc/codec.h"
#include "ftspm/fault/strike_model.h"
#include "ftspm/mem/geometry.h"
#include "ftspm/mem/technology.h"
#include "ftspm/util/fastdiv.h"
#include "ftspm/util/rng.h"

namespace ftspm {

/// Severity-ordered outcome of one strike.
enum class StrikeOutcome : std::uint8_t {
  Masked = 0,  ///< No architectural effect (immune cells, dead data, or
               ///< flips that cancelled).
  Dre,         ///< Detected and recovered (ECC corrected everything).
  Due,         ///< Detected, unrecoverable.
  Sdc,         ///< Silent data corruption.
};

const char* to_string(StrikeOutcome outcome) noexcept;

/// One region surface as the injector sees it.
struct InjectionRegion {
  RegionGeometry geometry{8, 0};
  ProtectionKind protection = ProtectionKind::None;
  /// Probability that a struck word holds architecturally-required
  /// data (occupancy x ACE); strikes on dead words are masked.
  double ace_occupancy = 1.0;
  /// Physical bit interleaving degree: adjacent physical bits belong
  /// to `interleave` different codewords. 1 = no interleaving.
  std::uint32_t interleave = 1;
};

struct CampaignConfig {
  std::uint64_t strikes = 100'000;
  std::uint64_t seed = 0x57a1ce5eed;
  std::uint32_t max_flips = 16;

  /// When non-zero, `progress` is invoked every `progress_interval`
  /// strikes and once at completion with (strikes_done, strikes_total).
  /// Reporting only — it must not touch the RNG, so enabling it cannot
  /// change campaign results.
  std::uint64_t progress_interval = 0;
  std::function<void(std::uint64_t, std::uint64_t)> progress;
};

struct CampaignResult {
  std::uint64_t strikes = 0;
  std::uint64_t masked = 0;
  std::uint64_t dre = 0;
  std::uint64_t due = 0;
  std::uint64_t sdc = 0;

  double fraction(std::uint64_t n) const noexcept {
    return strikes ? static_cast<double>(n) / static_cast<double>(strikes)
                   : 0.0;
  }
  /// Comparable to AvfResult::vulnerability().
  double vulnerability() const noexcept {
    return fraction(due + sdc);
  }
};

class SensitivityGrid;

// run_campaign, the serial entry point of the static campaign, is a
// one-shard run of the campaign runner: see exec/parallel_campaign.h.

/// Strikes per block of the static campaign engine: it tallies and
/// records (sensitivity grid) this many strikes at a time
/// (docs/performance.md, "Batched classification"). Block size is pure
/// scheduling — any width yields bit-identical results — and tests pin
/// that by overriding CampaignScratch::Batch::width.
inline constexpr std::uint32_t kCampaignBatchWidth = 256;

/// Widest codeword the run-outcome tables cover: 64 data bits plus the
/// 8 check bits of a standard SEC-DED word.
inline constexpr std::uint32_t kRunTableBits = 72;

/// One row of a run-outcome table (detail::run_outcome_table): row `lo`
/// holds, at index `len`, the StrikeOutcome value of the word pattern
/// that flips codeword bits [lo, lo + len).
using RunOutcomeRow = std::array<std::uint8_t, kRunTableBits + 1>;

/// Per-region constants the batched engine derives from an
/// InjectionRegion once per chunk: geometry scalars hoisted out of the
/// strike loop plus exact magic-multiply dividers for the bit -> (word,
/// bit-in-codeword) aim arithmetic.
struct BatchRegionInfo {
  double weight = 0.0;  ///< physical_bits as double (discrete pick).
  std::uint64_t physical_bits = 0;
  std::uint64_t words = 0;
  std::uint32_t codeword_bits = 0;
  std::uint32_t interleave = 1;
  /// codeword_bits * interleave: physical span of one interleave group.
  std::uint64_t group_bits = 0;
  ProtectionKind protection = ProtectionKind::None;
  double ace_occupancy = 1.0;
  FastDiv64 div_codeword;    ///< by codeword_bits (interleave == 1 aim).
  FastDiv64 div_group;       ///< by group_bits (interleave > 1 aim).
  FastDiv64 div_interleave;  ///< by interleave (interleave > 1 aim).

  /// True when the region qualifies for the run-table classify path:
  /// no interleaving and a protection kind and geometry the run-outcome
  /// tables cover (None or SEC-DED with <= 8 check bits, parity with
  /// <= 1 — see lut_classifiable in injector_batch.cpp). Exotic
  /// geometries (e.g. a parity region with extra check bits) and
  /// interleaved regions take the general per-word path instead; both
  /// paths share every RNG draw and produce identical outcomes.
  bool fast = false;
  /// How the ACE-occupancy draw resolves: 0 = always masked (no draw),
  /// 1 = always kept (no draw), 2 = one Bernoulli draw per non-masked
  /// strike — mirroring Rng::next_bool's p <= 0 / p >= 1 / else arms.
  std::uint8_t ace_mode = 1;
  /// ceil(ace_occupancy * 2^53): the mode-2 Bernoulli draw in the
  /// integer domain. next_double() returns (x >> 11) * 2^-53 exactly,
  /// so `u < p  <=>  (x >> 11) < ceil(p * 2^53)` — the product is
  /// exact (p < 1 keeps it under 2^53) and an integer u_bits is below
  /// a real threshold iff it is below its ceiling. Comparing raw draw
  /// bits resolves branches earlier than the convert-to-double chain.
  std::uint64_t ace_bits = 0;
  /// The run-outcome table of `protection` on fast regions (null
  /// otherwise): run[bit][m] is the verdict of a struck word whose flips
  /// are the m-bit run starting at codeword bit `bit`. An uninterleaved
  /// strike flips a contiguous run in each word it touches, so one read
  /// per word classifies it without building the word's masks.
  const RunOutcomeRow* run = nullptr;
};

/// Reusable hot-loop scratch of one campaign shard. The engines'
/// general (interleaved) classify path records each strike's per-word
/// hits in the fixed inline array (`flips <= kInlineHits` covers any
/// realistic CampaignConfig::max_flips) and only falls back to the
/// heap — once, then reusing the buffer — beyond it, and the chunk
/// loop keeps its batch workspace here across calls; together the
/// campaign inner loop performs no per-strike allocation. Scratch is
/// pure workspace: it never affects results and is not checkpointed.
struct CampaignScratch {
  static constexpr std::uint32_t kInlineHits = 64;
  /// (word index, bit-in-codeword) hits of the strike being classified.
  std::array<std::pair<std::uint64_t, std::uint32_t>, kInlineHits> hits;
  /// Spill buffer for strikes with more than kInlineHits surviving
  /// flips; cleared, not shrunk, so it allocates at most once.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> spill;

  /// Workspace of the batched chunk engines. run_campaign_chunk draws
  /// and classifies one block of `width` strikes at a time, in the
  /// documented draw order; when a sensitivity grid is attached it
  /// records each strike's region, origin and final outcome in the
  /// per-strike arrays and replays them into the grid after the block
  /// (without a grid it stores nothing per strike). All
  /// vectors are sized on first use and reused for the whole campaign.
  struct Batch {
    /// Block width. kCampaignBatchWidth for real campaigns; tests set
    /// other values (down to 1) to pin width-invariance of results.
    std::uint32_t width = kCampaignBatchWidth;

    /// Region constant table + total pick weight, rebuilt per chunk.
    std::vector<BatchRegionInfo> regions;
    /// Compact copy of the pick weights (the discrete-pick scan walks
    /// one cache line instead of striding through BatchRegionInfo).
    std::vector<double> weights;
    double total_weight = 0.0;
    /// Region-pick breakpoints in draw-bits space: pick_bits[k] is the
    /// smallest u_bits = x >> 11 whose subtract-scan partial k is
    /// non-negative (2^53 when none is). Every partial is monotone in
    /// u, so per-chunk binary searches recover the exact FP decision
    /// boundaries once and the per-strike pick becomes integer
    /// compares against the raw draw — bit-identical to
    /// Rng::next_discrete's scan (see pick_region).
    std::vector<std::uint64_t> pick_bits;
    /// Index next_discrete's underflow fallback resolves to (the last
    /// positive weight), precomputed per chunk.
    std::size_t pick_fallback = 0;

    // Per-strike arrays, indexed by slot in the current block.
    std::vector<std::uint32_t> region_of;
    std::vector<std::uint64_t> origin;
    std::vector<std::uint8_t> outcome;  ///< StrikeOutcome, after ACE.
  };
  Batch batch;
};

/// Mutable state of one in-flight campaign (or campaign shard):
/// completed-strike count, partial counters, and the generator
/// positioned after the last completed strike. Everything needed to
/// suspend the loop, serialize it to a checkpoint, and resume later —
/// resuming from (done, partial, rng) continues the exact sequence an
/// uninterrupted run would have produced. The scratch member is
/// transient workspace owned by whichever worker drives the shard;
/// checkpoints ignore it.
struct CampaignShardState {
  std::uint64_t done = 0;
  CampaignResult partial;
  Rng rng{0};
  CampaignScratch scratch;
};

/// Fresh state for a campaign whose generator is seeded with `seed`
/// (callers apply any kind-specific seed salt before calling).
CampaignShardState begin_campaign_shard(std::uint64_t seed) noexcept;

/// Advances `state` by up to `max_strikes` strikes of the campaign
/// described by (regions, strikes, config), stopping early at
/// config.strikes. Chunking never changes results: any chunk-size
/// schedule reaching config.strikes yields the same counters as one
/// call. `grid` (nullable, must be active) accumulates per-(region,
/// bucket) outcome counts off the hot path.
void run_campaign_chunk(const std::vector<InjectionRegion>& regions,
                        const StrikeMultiplicityModel& strikes,
                        const CampaignConfig& config,
                        CampaignShardState& state, std::uint64_t max_strikes,
                        SensitivityGrid* grid = nullptr);

// The per-strike reference classifiers (classify_strike,
// classify_strike_oracle, locate_strike_bit) the engine is pinned
// against live in the ftspm_oracle target: see oracle/strike_oracle.h.

}  // namespace ftspm
