// Observability: the metrics registry.
//
// A registry of named counters, gauges, and fixed-bucket histograms.
// A run books into the registry of the obs::Context it was handed
// (context.h); a run handed no context books nothing and pays nothing.
//
// Instruments cache their handles (`Counter&` etc.) outside hot loops:
// name lookup happens once per run, not per event. Snapshots are
// deterministic — entries are stored in a sorted map and the JSON/CSV
// dumps contain only simulation-derived quantities. Wall-clock timer
// entries (see timer.h) are excluded unless explicitly requested, so
// two runs with the same seed produce byte-identical dumps.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ftspm/obs/labels.h"

namespace ftspm::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram. Bucket `i` counts observations with
/// `value <= bounds[i]`; one implicit overflow bucket catches the rest.
/// Also tracks count/sum/min/max for cheap summary statistics.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bucket_bounds);

  void observe(double value) noexcept;

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<std::uint64_t>& buckets() const noexcept {
    return buckets_;
  }
  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  double mean() const noexcept {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  /// Quantile estimate interpolated linearly inside the fixed buckets
  /// (Prometheus histogram_quantile style), with the tracked min/max
  /// standing in for the open edges of the first and overflow buckets.
  /// `q` is clamped to [0, 1]; returns 0 for an empty histogram. A
  /// pure function of the bucket counts, so snapshots stay
  /// deterministic.
  double quantile(double q) const noexcept;

  /// Adds `other`'s observations into this histogram (bucket-wise).
  /// Requires identical bucket bounds.
  void merge_from(const Histogram& other);

 private:
  std::vector<double> bounds_;  ///< Strictly increasing.
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Wall-clock duration accumulator fed by ScopedTimer (timer.h).
/// Non-deterministic by nature, so snapshots skip timers by default.
class TimerStat {
 public:
  void record_ns(std::uint64_t ns) noexcept {
    ++count_;
    total_ns_ += ns;
    if (count_ == 1 || ns > max_ns_) max_ns_ = ns;
  }
  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t total_ns() const noexcept { return total_ns_; }
  std::uint64_t max_ns() const noexcept { return max_ns_; }

  /// Folds another accumulator's summary in (count/total add, max
  /// keeps the larger).
  void merge_from(const TimerStat& other) noexcept {
    if (other.count_ == 0) return;
    if (count_ == 0 || other.max_ns_ > max_ns_) max_ns_ = other.max_ns_;
    count_ += other.count_;
    total_ns_ += other.total_ns_;
  }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t total_ns_ = 0;
  std::uint64_t max_ns_ = 0;
};

/// What a snapshot should include.
struct SnapshotOptions {
  /// Wall-clock timers vary run to run; keep them out of dumps that
  /// must be byte-identical for a fixed seed (the default).
  bool include_wall_time = false;
};

/// Named-instrument registry. Lookup creates on first use; names are
/// conventionally dot-separated ("sim.evictions", "mda.evicted.energy").
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Creates with `bucket_bounds` on first use; later calls with the
  /// same name ignore the bounds argument.
  Histogram& histogram(std::string_view name,
                       std::vector<double> bucket_bounds);
  TimerStat& timer(std::string_view name);

  /// Labelled (dimensional) variants: one family `name`, one series per
  /// distinct LabelSet (see labels.h). Series are keyed by the
  /// canonical label encoding, so lookup order never affects snapshots
  /// or merges. All series of a histogram family share the bounds fixed
  /// by its first call; later bounds arguments are ignored.
  Counter& counter(std::string_view name, const LabelSet& labels);
  Histogram& histogram(std::string_view name, const LabelSet& labels,
                       std::vector<double> bucket_bounds);

  /// Deterministic JSON document: {"counters":{...},"gauges":{...},
  /// "histograms":{...}} with keys in sorted order.
  std::string to_json(const SnapshotOptions& options = {}) const;
  /// Flat CSV: kind,name,field,value — one row per scalar.
  std::string to_csv(const SnapshotOptions& options = {}) const;

  /// Folds `other`'s instruments into this registry: counters and
  /// timers add, histograms merge bucket-wise (created here on first
  /// sight), gauges take `other`'s value (last write wins, matching
  /// what a serial run would have left behind). The parallel campaign
  /// runner merges per-shard delta registries through this, in shard
  /// order, so the root registry after a parallel run is byte-identical
  /// to the serial run's.
  void merge_from(const Registry& other);

  std::size_t size() const noexcept {
    std::size_t n = counters_.size() + gauges_.size() + histograms_.size() +
                    timers_.size();
    for (const auto& [name, family] : labelled_counters_)
      n += family.size();
    for (const auto& [name, family] : labelled_histograms_)
      n += family.series.size();
    return n;
  }

 private:
  /// Series of one labelled histogram family, sharing one bounds
  /// vector. Series keys are canonical label encodings.
  struct HistogramFamily {
    std::vector<double> bounds;
    std::map<std::string, Histogram, std::less<>> series;
  };

  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::map<std::string, TimerStat, std::less<>> timers_;
  std::map<std::string, std::map<std::string, Counter, std::less<>>,
           std::less<>>
      labelled_counters_;
  std::map<std::string, HistogramFamily, std::less<>> labelled_histograms_;
};

}  // namespace ftspm::obs
