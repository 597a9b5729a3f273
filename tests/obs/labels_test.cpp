// LabelSet canonical encoding and the labelled metric families:
// insertion-order independence, snapshot shape, and the shard-merge
// determinism the parallel campaign relies on.
#include "ftspm/obs/labels.h"

#include <gtest/gtest.h>

#include "ftspm/obs/metrics.h"
#include "ftspm/util/error.h"
#include "ftspm/util/json.h"

namespace ftspm::obs {
namespace {

TEST(LabelSetTest, EncodingIsSortedAndInsertionOrderIndependent) {
  const LabelSet a{{"region", "dspm0"}, {"ecc", "secded"}, {"outcome", "sdc"}};
  const LabelSet b{{"outcome", "sdc"}, {"ecc", "secded"}, {"region", "dspm0"}};
  EXPECT_EQ(a.encoded(), "ecc=secded;outcome=sdc;region=dspm0");
  EXPECT_EQ(a.encoded(), b.encoded());
  EXPECT_EQ(a.size(), 3u);
}

TEST(LabelSetTest, SetReplacesExistingKey) {
  LabelSet labels{{"phase", "static"}};
  labels.set("phase", "recovery").set("region", "r0");
  EXPECT_EQ(labels.encoded(), "phase=recovery;region=r0");
  EXPECT_EQ(labels.size(), 2u);
}

TEST(LabelSetTest, EmptySetEncodesEmpty) {
  const LabelSet labels;
  EXPECT_TRUE(labels.empty());
  EXPECT_EQ(labels.encoded(), "");
}

TEST(LabelSetTest, RejectsReservedCharactersAndEmptyTokens) {
  EXPECT_THROW(LabelSet({{"", "v"}}), Error);
  EXPECT_THROW(LabelSet({{"k", ""}}), Error);
  EXPECT_THROW(LabelSet({{"k=1", "v"}}), Error);
  EXPECT_THROW(LabelSet({{"k", "a;b"}}), Error);
  EXPECT_THROW(LabelSet({{"k", "a,b"}}), Error);
  EXPECT_THROW(LabelSet({{"{k}", "v"}}), Error);
  EXPECT_THROW(LabelSet({{"k", "\"v\""}}), Error);
  EXPECT_THROW(LabelSet({{"k", "a\nb"}}), Error);
}

TEST(LabelledMetricsTest, CounterSeriesAreKeyedByEncoding) {
  Registry reg;
  reg.counter("campaign.outcome", LabelSet{{"outcome", "sdc"}}).add(3);
  reg.counter("campaign.outcome", LabelSet{{"outcome", "due"}}).add(5);
  // Same labels, different insertion order: the same series.
  reg.counter("campaign.outcome",
              LabelSet{{"region", "r0"}, {"outcome", "sdc"}})
      .add(1);
  reg.counter("campaign.outcome",
              LabelSet{{"outcome", "sdc"}, {"region", "r0"}})
      .add(1);
  EXPECT_EQ(
      reg.counter("campaign.outcome", LabelSet{{"outcome", "sdc"}}).value(),
      3u);
  EXPECT_EQ(reg.counter("campaign.outcome",
                        LabelSet{{"outcome", "sdc"}, {"region", "r0"}})
                .value(),
            2u);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(LabelledMetricsTest, SnapshotOmitsLabelledSectionsWhenUnused) {
  Registry reg;
  reg.counter("plain").add(1);
  const std::string json = reg.to_json();
  EXPECT_EQ(json.find("labelled_counters"), std::string::npos);
  EXPECT_EQ(json.find("labelled_histograms"), std::string::npos);
}

TEST(LabelledMetricsTest, SnapshotJsonCarriesLabelledSeries) {
  Registry reg;
  reg.counter("campaign.outcome",
              LabelSet{{"ecc", "secded"}, {"outcome", "sdc"}})
      .add(7);
  reg.histogram("campaign.bucket_strikes", LabelSet{{"region", "r0"}},
                {1.0, 10.0})
      .observe(5.0);
  const JsonValue doc = parse_json(reg.to_json());
  const JsonValue& counters = doc.at("labelled_counters");
  EXPECT_DOUBLE_EQ(
      counters.at("campaign.outcome").at("ecc=secded;outcome=sdc").number,
      7.0);
  const JsonValue& histograms = doc.at("labelled_histograms");
  EXPECT_DOUBLE_EQ(histograms.at("campaign.bucket_strikes")
                       .at("region=r0")
                       .at("count")
                       .number,
                   1.0);
}

TEST(LabelledMetricsTest, CsvRowsEmbedTheEncodingInBraces) {
  Registry reg;
  reg.counter("campaign.outcome",
              LabelSet{{"outcome", "due"}, {"region", "r1"}})
      .add(2);
  const std::string csv = reg.to_csv();
  EXPECT_NE(
      csv.find(
          "labelled_counter,campaign.outcome{outcome=due;region=r1},value,2"),
      std::string::npos)
      << csv;
}

TEST(LabelledMetricsTest, MergeFromAddsSerieswiseLikeShards) {
  // Two "shards" tally disjoint and overlapping series; the merged
  // snapshot must match a registry that saw every increment serially.
  Registry serial;
  Registry shard_a;
  Registry shard_b;
  const LabelSet sdc{{"outcome", "sdc"}};
  const LabelSet due{{"outcome", "due"}};
  serial.counter("o", sdc).add(3);
  serial.counter("o", due).add(4);
  serial.histogram("h", sdc, {1.0, 2.0}).observe(1.5);
  serial.histogram("h", sdc, {1.0, 2.0}).observe(0.5);

  shard_a.counter("o", sdc).add(1);
  shard_a.counter("o", due).add(4);
  shard_a.histogram("h", sdc, {1.0, 2.0}).observe(1.5);
  shard_b.counter("o", sdc).add(2);
  shard_b.histogram("h", sdc, {1.0, 2.0}).observe(0.5);

  Registry merged;
  merged.merge_from(shard_a);
  merged.merge_from(shard_b);
  EXPECT_EQ(merged.to_json(), serial.to_json());
  EXPECT_EQ(merged.to_csv(), serial.to_csv());
}

}  // namespace
}  // namespace ftspm::obs
