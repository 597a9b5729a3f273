#include "ftspm/obs/metrics.h"

#include <algorithm>

#include "ftspm/util/error.h"
#include "ftspm/util/json.h"

namespace ftspm::obs {

Histogram::Histogram(std::vector<double> bucket_bounds)
    : bounds_(std::move(bucket_bounds)), buckets_(bounds_.size() + 1, 0) {
  FTSPM_REQUIRE(!bounds_.empty() &&
                    std::is_sorted(bounds_.begin(), bounds_.end()) &&
                    std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                        bounds_.end(),
                "histogram bounds must be non-empty and strictly increasing");
}

void Histogram::observe(double value) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

double Histogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  const double rank = q * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t below = cumulative;
    cumulative += buckets_[i];
    if (static_cast<double>(cumulative) < rank || buckets_[i] == 0) continue;
    // Interpolate inside bucket i. The first bucket opens at the
    // tracked min; the overflow bucket closes at the tracked max.
    const double lo = i == 0 ? min_ : std::max(bounds_[i - 1], min_);
    const double hi = i < bounds_.size() ? std::min(bounds_[i], max_) : max_;
    if (hi <= lo) return std::min(std::max(lo, min_), max_);
    const double inside =
        (rank - static_cast<double>(below)) / static_cast<double>(buckets_[i]);
    const double v = lo + (hi - lo) * std::min(std::max(inside, 0.0), 1.0);
    return std::min(std::max(v, min_), max_);
  }
  return max_;
}

void Histogram::merge_from(const Histogram& other) {
  FTSPM_REQUIRE(bounds_ == other.bounds_,
                "cannot merge histograms with different bucket bounds");
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    buckets_[i] += other.buckets_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

Counter& Registry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace(std::string(name), Counter{}).first->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.emplace(std::string(name), Gauge{}).first->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bucket_bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_
      .emplace(std::string(name), Histogram(std::move(bucket_bounds)))
      .first->second;
}

TimerStat& Registry::timer(std::string_view name) {
  const auto it = timers_.find(name);
  if (it != timers_.end()) return it->second;
  return timers_.emplace(std::string(name), TimerStat{}).first->second;
}

Counter& Registry::counter(std::string_view name, const LabelSet& labels) {
  auto family = labelled_counters_.find(name);
  if (family == labelled_counters_.end())
    family = labelled_counters_
                 .emplace(std::string(name),
                          std::map<std::string, Counter, std::less<>>{})
                 .first;
  auto& series = family->second;
  const auto it = series.find(labels.encoded());
  if (it != series.end()) return it->second;
  return series.emplace(labels.encoded(), Counter{}).first->second;
}

Histogram& Registry::histogram(std::string_view name, const LabelSet& labels,
                               std::vector<double> bucket_bounds) {
  auto family = labelled_histograms_.find(name);
  if (family == labelled_histograms_.end())
    family = labelled_histograms_
                 .emplace(std::string(name),
                          HistogramFamily{std::move(bucket_bounds), {}})
                 .first;
  auto& series = family->second.series;
  const auto it = series.find(labels.encoded());
  if (it != series.end()) return it->second;
  return series.emplace(labels.encoded(), Histogram(family->second.bounds))
      .first->second;
}

std::string Registry::to_json(const SnapshotOptions& options) const {
  JsonWriter w;
  const auto histogram_body = [&w](const Histogram& h) {
    w.begin_array("bounds");
    for (double b : h.bounds()) w.element(b);
    w.end_array();
    w.begin_array("buckets");
    for (std::uint64_t n : h.buckets())
      w.element(static_cast<double>(n));
    w.end_array();
    w.field("count", h.count())
        .field("sum", h.sum())
        .field("min", h.min())
        .field("max", h.max())
        .field("p50", h.quantile(0.50))
        .field("p95", h.quantile(0.95))
        .field("p99", h.quantile(0.99));
  };
  w.begin_object();
  w.begin_object("counters");
  for (const auto& [name, c] : counters_) w.field(name, c.value());
  w.end_object();
  w.begin_object("gauges");
  for (const auto& [name, g] : gauges_) w.field(name, g.value());
  w.end_object();
  w.begin_object("histograms");
  for (const auto& [name, h] : histograms_) {
    w.begin_object(name);
    histogram_body(h);
    w.end_object();
  }
  w.end_object();
  // Labelled families appear only once one exists, so snapshots from
  // code that never labels stay byte-identical to the pre-label shape.
  if (!labelled_counters_.empty()) {
    w.begin_object("labelled_counters");
    for (const auto& [name, series] : labelled_counters_) {
      w.begin_object(name);
      for (const auto& [labels, c] : series) w.field(labels, c.value());
      w.end_object();
    }
    w.end_object();
  }
  if (!labelled_histograms_.empty()) {
    w.begin_object("labelled_histograms");
    for (const auto& [name, family] : labelled_histograms_) {
      w.begin_object(name);
      for (const auto& [labels, h] : family.series) {
        w.begin_object(labels);
        histogram_body(h);
        w.end_object();
      }
      w.end_object();
    }
    w.end_object();
  }
  if (options.include_wall_time) {
    w.begin_object("timers_ns");
    for (const auto& [name, t] : timers_) {
      w.begin_object(name)
          .field("count", t.count())
          .field("total_ns", t.total_ns())
          .field("max_ns", t.max_ns())
          .end_object();
    }
    w.end_object();
  }
  w.end_object();
  return w.str();
}

std::string Registry::to_csv(const SnapshotOptions& options) const {
  std::string out = "kind,name,field,value\n";
  auto row = [&out](std::string_view kind, const std::string& name,
                    std::string_view field, const std::string& value) {
    out += kind;
    out += ',';
    out += name;
    out += ',';
    out += field;
    out += ',';
    out += value;
    out += '\n';
  };
  auto num = [](double v) {
    std::string s = std::to_string(v);
    return s;
  };
  const auto histogram_rows = [&](std::string_view kind,
                                  const std::string& name,
                                  const Histogram& h) {
    row(kind, name, "count", std::to_string(h.count()));
    row(kind, name, "sum", num(h.sum()));
    row(kind, name, "min", num(h.min()));
    row(kind, name, "max", num(h.max()));
    row(kind, name, "p50", num(h.quantile(0.50)));
    row(kind, name, "p95", num(h.quantile(0.95)));
    row(kind, name, "p99", num(h.quantile(0.99)));
    for (std::size_t i = 0; i < h.buckets().size(); ++i) {
      const std::string field =
          i < h.bounds().size() ? "le_" + num(h.bounds()[i]) : "overflow";
      row(kind, name, field, std::to_string(h.buckets()[i]));
    }
  };
  for (const auto& [name, c] : counters_)
    row("counter", name, "value", std::to_string(c.value()));
  for (const auto& [name, g] : gauges_)
    row("gauge", name, "value", num(g.value()));
  for (const auto& [name, h] : histograms_)
    histogram_rows("histogram", name, h);
  // The ';'-separated label encoding (labels.h) keeps these names free
  // of commas, so the flat comma-split format stays parseable.
  for (const auto& [name, series] : labelled_counters_)
    for (const auto& [labels, c] : series)
      row("labelled_counter", name + "{" + labels + "}", "value",
          std::to_string(c.value()));
  for (const auto& [name, family] : labelled_histograms_)
    for (const auto& [labels, h] : family.series)
      histogram_rows("labelled_histogram", name + "{" + labels + "}", h);
  if (options.include_wall_time) {
    for (const auto& [name, t] : timers_) {
      row("timer", name, "count", std::to_string(t.count()));
      row("timer", name, "total_ns", std::to_string(t.total_ns()));
      row("timer", name, "max_ns", std::to_string(t.max_ns()));
    }
  }
  return out;
}

void Registry::merge_from(const Registry& other) {
  // A counter registered at zero is carried over registered, as the
  // serial run would have left it.
  for (const auto& [name, c] : other.counters_) counter(name).add(c.value());
  for (const auto& [name, g] : other.gauges_) gauge(name).set(g.value());
  for (const auto& [name, h] : other.histograms_)
    histogram(name, h.bounds()).merge_from(h);
  for (const auto& [name, t] : other.timers_)
    if (t.count() != 0) timer(name).merge_from(t);
  // Labelled series merge like their plain counterparts; the series key
  // (canonical label encoding) needs no LabelSet round trip.
  for (const auto& [name, series] : other.labelled_counters_) {
    auto& mine = labelled_counters_[name];
    for (const auto& [labels, c] : series) mine[labels].add(c.value());
  }
  for (const auto& [name, family] : other.labelled_histograms_) {
    auto it = labelled_histograms_.find(name);
    if (it == labelled_histograms_.end())
      it = labelled_histograms_
               .emplace(name, HistogramFamily{family.bounds, {}})
               .first;
    for (const auto& [labels, h] : family.series) {
      auto& series = it->second.series;
      const auto hit = series.find(labels);
      if (hit != series.end()) {
        hit->second.merge_from(h);
      } else {
        series.emplace(labels, Histogram(it->second.bounds))
            .first->second.merge_from(h);
      }
    }
  }
}

}  // namespace ftspm::obs
