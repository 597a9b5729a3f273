#include "ftspm/obs/metrics.h"

#include <gtest/gtest.h>

#include "ftspm/util/error.h"
#include "ftspm/util/json.h"

namespace ftspm::obs {
namespace {

TEST(CounterTest, AddAccumulatesAndResetZeroes) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge g;
  g.set(3.5);
  g.set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(HistogramTest, BucketBoundariesAreInclusive) {
  Histogram h({10.0, 20.0, 30.0});
  ASSERT_EQ(h.buckets().size(), 4u);  // three bounds + overflow
  h.observe(10.0);  // lands in bucket 0 (value <= bounds[0])
  h.observe(10.5);  // bucket 1
  h.observe(30.0);  // bucket 2
  h.observe(31.0);  // overflow
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 81.5);
  EXPECT_DOUBLE_EQ(h.min(), 10.0);
  EXPECT_DOUBLE_EQ(h.max(), 31.0);
  EXPECT_NEAR(h.mean(), 81.5 / 4.0, 1e-12);
}

TEST(HistogramTest, ResetKeepsTheBucketLayout) {
  Histogram h({1.0, 2.0});
  h.observe(0.5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  ASSERT_EQ(h.buckets().size(), 3u);
  EXPECT_EQ(h.buckets()[0], 0u);
  EXPECT_EQ(h.bounds().size(), 2u);
}

TEST(HistogramTest, RejectsNonIncreasingBounds) {
  EXPECT_THROW(Histogram({2.0, 2.0}), Error);
  EXPECT_THROW(Histogram({3.0, 1.0}), Error);
  EXPECT_THROW(Histogram({}), Error);
}

TEST(HistogramTest, QuantilePinnedValues) {
  // The reference pin for the interpolated estimator: uniform 1..40
  // over bounds {10,20,30,40} (10 observations per bucket).
  Histogram h({10.0, 20.0, 30.0, 40.0});
  for (int v = 1; v <= 40; ++v) h.observe(static_cast<double>(v));
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 20.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 38.0);
  EXPECT_NEAR(h.quantile(0.99), 39.6, 1e-9);
  // Extremes clamp to the observed range.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 40.0);
}

TEST(HistogramTest, QuantileOfEmptyHistogramIsZero) {
  // The documented sentinel: an empty histogram answers 0.0 for every
  // q, including the clamped extremes. Load reports lean on this for
  // zero-weight request classes, so the contract is pinned here.
  Histogram h({1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
  // reset() returns a populated histogram to the same sentinel.
  h.observe(1.5);
  EXPECT_GT(h.quantile(0.5), 0.0);
  h.reset();
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
}

TEST(HistogramTest, SnapshotCarriesQuantiles) {
  Registry r;
  Histogram& h = r.histogram("lat", {10.0, 20.0, 30.0, 40.0});
  for (int v = 1; v <= 40; ++v) h.observe(static_cast<double>(v));
  const JsonValue doc = parse_json(r.to_json());
  const JsonValue& j = doc.at("histograms").at("lat");
  EXPECT_DOUBLE_EQ(j.at("p50").number, 20.0);
  EXPECT_DOUBLE_EQ(j.at("p95").number, 38.0);
  EXPECT_NEAR(j.at("p99").number, 39.6, 1e-9);
}

TEST(HistogramTest, MergeAddsBucketsAndDemandsSameBounds) {
  Histogram a({1.0, 2.0});
  Histogram b({1.0, 2.0});
  a.observe(0.5);
  b.observe(1.5);
  b.observe(5.0);
  a.merge_from(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), 7.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.5);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
  Histogram other({3.0, 4.0});
  EXPECT_THROW(a.merge_from(other), Error);
}

TEST(TimerStatTest, MergeAddsCountsAndKeepsTheLargerMax) {
  TimerStat a;
  TimerStat b;
  a.record_ns(100);
  b.record_ns(250);
  b.record_ns(10);
  a.merge_from(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.total_ns(), 360u);
  EXPECT_EQ(a.max_ns(), 250u);
  TimerStat empty;
  a.merge_from(empty);  // merging an idle timer is a no-op
  EXPECT_EQ(a.count(), 3u);
}

TEST(RegistryTest, MergeFoldsEveryInstrumentKind) {
  Registry a;
  Registry b;
  a.counter("c").add(1);
  b.counter("c").add(2);
  b.counter("only_b").add(7);
  b.gauge("g").set(3.5);
  b.histogram("h", {1.0, 2.0}).observe(1.5);
  b.timer("t").record_ns(50);
  a.merge_from(b);
  EXPECT_EQ(a.counter("c").value(), 3u);
  EXPECT_EQ(a.counter("only_b").value(), 7u);
  EXPECT_DOUBLE_EQ(a.gauge("g").value(), 3.5);
  EXPECT_EQ(a.histogram("h", {1.0, 2.0}).count(), 1u);
  EXPECT_EQ(a.timer("t").count(), 1u);
}

// A counter another registry registered but left at zero arrives
// registered, so the merged snapshot lists it as a serial run's would.
TEST(RegistryTest, MergeCarriesZeroCountersRegistered) {
  Registry serial;
  serial.counter("evictions");
  serial.counter("o", LabelSet{{"outcome", "sdc"}});
  Registry shard;
  shard.counter("evictions");
  shard.counter("o", LabelSet{{"outcome", "sdc"}});
  Registry merged;
  merged.merge_from(shard);
  EXPECT_EQ(merged.to_json(), serial.to_json());
  EXPECT_EQ(merged.to_csv(), serial.to_csv());
}

TEST(TimerStatTest, TracksCountTotalAndMax) {
  TimerStat t;
  t.record_ns(100);
  t.record_ns(50);
  t.record_ns(300);
  EXPECT_EQ(t.count(), 3u);
  EXPECT_EQ(t.total_ns(), 450u);
  EXPECT_EQ(t.max_ns(), 300u);
}

TEST(RegistryTest, LookupCreatesOnceAndHandlesAreStable) {
  Registry r;
  Counter& a = r.counter("x");
  Counter& b = r.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(7);
  EXPECT_EQ(r.counter("x").value(), 7u);
  EXPECT_EQ(r.size(), 1u);
  r.gauge("g").set(1.0);
  r.histogram("h", {1.0, 2.0}).observe(1.5);
  // Later lookups ignore the bounds argument.
  EXPECT_EQ(r.histogram("h", {99.0}).bounds().size(), 2u);
  EXPECT_EQ(r.size(), 3u);
}

TEST(RegistryTest, ResetValuesKeepsRegistrationsClearDropsThem) {
  Registry r;
  Counter& c = r.counter("c");
  c.add(5);
  r.reset_values();
  EXPECT_EQ(c.value(), 0u);  // handle still valid
  EXPECT_EQ(r.size(), 1u);
  r.clear();
  EXPECT_EQ(r.size(), 0u);
}

TEST(RegistryTest, JsonSnapshotIsDeterministicAndSorted) {
  Registry r;
  r.counter("zeta").add(2);
  r.counter("alpha").add(1);
  r.gauge("mid").set(0.5);
  r.histogram("lat", {1.0, 10.0}).observe(3.0);
  const std::string a = r.to_json();
  const std::string b = r.to_json();
  EXPECT_EQ(a, b);
  // Sorted keys: alpha before zeta.
  EXPECT_LT(a.find("\"alpha\""), a.find("\"zeta\""));

  const JsonValue doc = parse_json(a);
  EXPECT_DOUBLE_EQ(doc.at("counters").at("alpha").number, 1.0);
  EXPECT_DOUBLE_EQ(doc.at("counters").at("zeta").number, 2.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("mid").number, 0.5);
  const JsonValue& h = doc.at("histograms").at("lat");
  EXPECT_EQ(h.at("buckets").array.size(), 3u);
  EXPECT_DOUBLE_EQ(h.at("count").number, 1.0);
}

TEST(RegistryTest, WallTimersAreExcludedUnlessRequested) {
  Registry r;
  r.counter("c").add(1);
  r.timer("t").record_ns(123);
  const std::string without = r.to_json();
  EXPECT_EQ(without.find("timers_ns"), std::string::npos);
  SnapshotOptions opts;
  opts.include_wall_time = true;
  const std::string with = r.to_json(opts);
  EXPECT_NE(with.find("timers_ns"), std::string::npos);
  EXPECT_NE(with.find("\"t\""), std::string::npos);
}

TEST(RegistryTest, CsvHasOneRowPerScalar) {
  Registry r;
  r.counter("c").add(3);
  r.gauge("g").set(2.0);
  const std::string csv = r.to_csv();
  EXPECT_NE(csv.find("counter,c,value,3"), std::string::npos);
  EXPECT_NE(csv.find("gauge,g,value,2"), std::string::npos);
}

}  // namespace
}  // namespace ftspm::obs
