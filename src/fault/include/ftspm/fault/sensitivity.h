// Fault-sensitivity grid: where strikes land and what became of them.
//
// The campaign counters say *how many* strikes ended masked/DRE/DUE/
// SDC; the grid says *where*. Each region's physical bit range is
// split into a configurable number of equal buckets, and every strike
// increments one (region, bucket, outcome) cell — a single array
// increment off a precomputed base, no allocation, so recording stays
// out of the campaign hot path's way. The paper's MDA story is spatial
// (the most-vulnerable blocks live in the most-protected regions), and
// the grid is what makes that claim inspectable per run: rendered as a
// heatmap by `ftspm_tool report`, or diffed as CSV.
//
// Sharding: the campaign runner gives each shard its own zeroed copy
// of the run's grid and adds the copies into it post-join in shard
// order (merge_from), so the grid is the same for any --jobs. A default-constructed grid is inactive
// (active() == false); campaign loops take a nullable pointer and skip
// recording entirely when no grid was requested.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ftspm/fault/injector.h"
#include "ftspm/fault/recovery.h"

namespace ftspm {

/// Per-(region, bucket) outcome accumulator over the SPM address space.
class SensitivityGrid {
 public:
  /// One count per StrikeOutcome (Masked, Dre, Due, Sdc).
  static constexpr std::size_t kOutcomes = 4;

  /// What the grid knows about one region: a short display label, the
  /// ECC scheme name (for metric labels and report tables), and the
  /// physical surface size the buckets divide.
  struct RegionSpec {
    std::string label;
    std::string protection;
    std::uint64_t physical_bits = 0;
  };

  /// Inactive grid: record() must not be called, merge_from/to_csv are
  /// errors. Campaign drivers pass nullptr instead of an inactive grid.
  SensitivityGrid() = default;

  /// `buckets` equal-width buckets per region. Every region needs a
  /// non-zero surface, and buckets * physical_bits must fit in 64 bits
  /// (true for any real SPM geometry).
  SensitivityGrid(std::vector<RegionSpec> regions, std::uint32_t buckets);

  bool active() const noexcept { return buckets_ != 0; }
  std::uint32_t buckets() const noexcept { return buckets_; }
  std::size_t region_count() const noexcept { return regions_.size(); }
  const std::vector<RegionSpec>& regions() const noexcept { return regions_; }

  /// Which bucket physical bit `bit` of `region` falls into. Exact
  /// integer arithmetic (no float rounding), so shard merges and CSV
  /// round trips agree bit for bit.
  std::size_t bucket_of(std::size_t region, std::uint64_t bit) const noexcept {
    const std::size_t b = static_cast<std::size_t>(
        bit * buckets_ / regions_[region].physical_bits);
    return b < buckets_ ? b : buckets_ - 1;
  }

  /// Hot-path record: one strike at `bit` of `region` with final
  /// outcome `outcome` (after ACE masking). Requires active().
  void record(std::size_t region, std::uint64_t bit,
              StrikeOutcome outcome) noexcept {
    ++counts_[(region * buckets_ + bucket_of(region, bit)) * kOutcomes +
              static_cast<std::size_t>(outcome)];
  }

  std::uint64_t count(std::size_t region, std::size_t bucket,
                      StrikeOutcome outcome) const noexcept {
    return counts_[(region * buckets_ + bucket) * kOutcomes +
                   static_cast<std::size_t>(outcome)];
  }
  /// All outcomes of one cell summed.
  std::uint64_t bucket_strikes(std::size_t region,
                               std::size_t bucket) const noexcept;
  /// One region's outcome totals folded into campaign-counter form.
  CampaignResult region_totals(std::size_t region) const noexcept;
  /// Grid-wide totals; equals the campaign's merged counters when every
  /// strike of the run was recorded.
  CampaignResult totals() const noexcept;

  /// Adds `other`'s cells into this grid. Requires identical geometry
  /// (bucket count and per-region spec). The sharded runners merge in
  /// shard order, so merged grids are jobs-invariant.
  void merge_from(const SensitivityGrid& other);

  /// Deterministic CSV, one row per (region, bucket):
  /// region,label,protection,bucket,first_bit,last_bit,strikes,masked,
  /// dre,due,sdc.
  std::string to_csv() const;

  /// Parses a to_csv() document back into a grid (used by the report
  /// toolchain). Throws ftspm::Error on a malformed document.
  static SensitivityGrid from_csv(std::string_view text);

 private:
  std::vector<RegionSpec> regions_;
  std::uint32_t buckets_ = 0;
  /// Region-major, then bucket, then outcome.
  std::vector<std::uint64_t> counts_;
};

/// Grid builders over the campaign region types. Labels default to
/// "r<index>"; pass `labels` to override (size must match).
SensitivityGrid make_sensitivity_grid(
    const std::vector<InjectionRegion>& regions, std::uint32_t buckets,
    const std::vector<std::string>& labels = {});
SensitivityGrid make_sensitivity_grid(
    const std::vector<RecoveryRegion>& regions, std::uint32_t buckets,
    const std::vector<std::string>& labels = {});

/// Folds a merged grid into the process-wide labelled metrics:
/// "campaign.outcome" counters keyed by {region, ecc, outcome, phase}
/// (zero cells skipped) and a "campaign.bucket_strikes" histogram per
/// {region, ecc, phase} observing every bucket's strike count — its
/// p50/p95/p99 quantify how concentrated the region's exposure is.
/// Coordinator-only, once per campaign, after any shard merge; a pure
/// function of the grid, so snapshots stay jobs-invariant. No-op when
/// observability is disabled or the grid is inactive.
void emit_sensitivity_metrics(const SensitivityGrid& grid,
                              std::string_view phase);

}  // namespace ftspm
