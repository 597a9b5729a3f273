#include "ftspm/exec/shard.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "ftspm/util/error.h"
#include "ftspm/util/rng.h"

namespace ftspm::exec {
namespace {

std::string temp_path(const char* stem) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + stem + "." +
         std::to_string(::getpid());
}

TEST(ShardPlanTest, StrikesPartitionTheRootTotal) {
  CampaignConfig root;
  root.strikes = 10;
  const auto plan = make_shard_plan(root, 3);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].config.strikes, 4u);  // 10 % 3 extras go first
  EXPECT_EQ(plan[1].config.strikes, 3u);
  EXPECT_EQ(plan[2].config.strikes, 3u);
  std::uint64_t total = 0;
  for (const CampaignShard& s : plan) total += s.config.strikes;
  EXPECT_EQ(total, root.strikes);
  for (std::uint32_t i = 0; i < plan.size(); ++i)
    EXPECT_EQ(plan[i].index, i);
}

TEST(ShardPlanTest, SingleShardKeepsTheRootSeed) {
  CampaignConfig root;
  root.seed = 0xabcdef;
  const auto plan = make_shard_plan(root, 1);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].config.seed, root.seed);
}

TEST(ShardPlanTest, MultiShardSeedsAreDerivedStreams) {
  CampaignConfig root;
  root.seed = 0xabcdef;
  const auto plan = make_shard_plan(root, 4);
  for (std::uint32_t i = 0; i < 4; ++i)
    EXPECT_EQ(plan[i].config.seed, Rng::derive_stream_seed(root.seed, i));
}

TEST(ShardPlanTest, ProgressIsStrippedFromShardConfigs) {
  CampaignConfig root;
  root.progress_interval = 100;
  root.progress = [](std::uint64_t, std::uint64_t) {};
  for (const CampaignShard& s : make_shard_plan(root, 2)) {
    EXPECT_EQ(s.config.progress_interval, 0u);
    EXPECT_FALSE(static_cast<bool>(s.config.progress));
  }
}

TEST(ShardPlanTest, ZeroShardsIsRejected) {
  EXPECT_THROW(make_shard_plan(CampaignConfig{}, 0), InvalidArgument);
}

TEST(ShardMergeTest, CountersSumAcrossShards) {
  CampaignResult a{10, 4, 3, 2, 1};
  CampaignResult b{5, 2, 1, 1, 1};
  const CampaignResult m = merge_shard_results({a, b});
  EXPECT_EQ(m.strikes, 15u);
  EXPECT_EQ(m.masked, 6u);
  EXPECT_EQ(m.dre, 4u);
  EXPECT_EQ(m.due, 3u);
  EXPECT_EQ(m.sdc, 2u);
  EXPECT_EQ(merge_shard_results({}).strikes, 0u);
}

CampaignCheckpoint sample_checkpoint() {
  CampaignCheckpoint cp;
  // Deliberately above 2^53: a double round-trip would corrupt these.
  cp.root_seed = 0xdeadbeefcafef00dULL;
  cp.strikes = 1000;
  cp.shard_count = 2;
  cp.seed_salt = 0x7e3a11ce;
  cp.kind = "temporal";
  ShardCheckpoint s0;
  s0.index = 0;
  s0.strikes = 500;
  s0.done = 120;
  s0.partial = CampaignResult{120, 100, 10, 6, 4};
  s0.rng_state = {0xffffffffffffffffULL, 0x8000000000000001ULL, 7, 0};
  ShardCheckpoint s1;
  s1.index = 1;
  s1.strikes = 500;
  s1.done = 500;
  s1.partial = CampaignResult{500, 400, 50, 30, 20};
  s1.rng_state = {1, 2, 3, 4};
  cp.shards = {s0, s1};
  return cp;
}

TEST(CheckpointJsonTest, RoundTripPreservesEveryField) {
  const CampaignCheckpoint cp = sample_checkpoint();
  const CampaignCheckpoint back = checkpoint_from_json(checkpoint_to_json(cp));
  EXPECT_EQ(back.root_seed, cp.root_seed);
  EXPECT_EQ(back.strikes, cp.strikes);
  EXPECT_EQ(back.shard_count, cp.shard_count);
  EXPECT_EQ(back.seed_salt, cp.seed_salt);
  EXPECT_EQ(back.kind, cp.kind);
  ASSERT_EQ(back.shards.size(), cp.shards.size());
  for (std::size_t i = 0; i < cp.shards.size(); ++i) {
    EXPECT_EQ(back.shards[i].index, cp.shards[i].index);
    EXPECT_EQ(back.shards[i].strikes, cp.shards[i].strikes);
    EXPECT_EQ(back.shards[i].done, cp.shards[i].done);
    EXPECT_EQ(back.shards[i].partial.masked, cp.shards[i].partial.masked);
    EXPECT_EQ(back.shards[i].partial.dre, cp.shards[i].partial.dre);
    EXPECT_EQ(back.shards[i].partial.due, cp.shards[i].partial.due);
    EXPECT_EQ(back.shards[i].partial.sdc, cp.shards[i].partial.sdc);
    EXPECT_EQ(back.shards[i].partial.strikes, cp.shards[i].done);
    EXPECT_EQ(back.shards[i].rng_state, cp.shards[i].rng_state);
  }
}

TEST(CheckpointJsonTest, CompletenessTracksShardProgress) {
  CampaignCheckpoint cp = sample_checkpoint();
  EXPECT_FALSE(cp.complete());
  cp.shards[0].done = cp.shards[0].strikes;
  EXPECT_TRUE(cp.complete());
}

TEST(CheckpointJsonTest, RejectsMalformedDocuments) {
  EXPECT_THROW(checkpoint_from_json("[]"), Error);
  EXPECT_THROW(checkpoint_from_json("{\"version\":2}"), Error);
  // RNG words must survive as hex strings, not numbers.
  std::string doc = checkpoint_to_json(sample_checkpoint());
  const std::string needle = "\"0xffffffffffffffff\"";
  const auto pos = doc.find(needle);
  ASSERT_NE(pos, std::string::npos);
  doc.replace(pos, needle.size(), "1.8446744073709552e19");
  EXPECT_THROW(checkpoint_from_json(doc), Error);
}

/// The sample checkpoint's JSON with the first `"key":<value>` member
/// rewritten to `"key":replacement`.
std::string with_member(const std::string& key, const std::string& replacement) {
  std::string doc = checkpoint_to_json(sample_checkpoint());
  const std::string needle = "\"" + key + "\":";
  const auto start = doc.find(needle);
  EXPECT_NE(start, std::string::npos) << key;
  const auto value = start + needle.size();
  const auto end = doc.find_first_of(",}", value);
  doc.replace(value, end - value, replacement);
  return doc;
}

TEST(CheckpointJsonTest, RejectsCountsThatAreNotExactIntegers) {
  // Each of these once read back as a truncated or wrapped count.
  EXPECT_THROW(checkpoint_from_json(with_member("strikes", "1e30")), Error);
  EXPECT_THROW(checkpoint_from_json(with_member("strikes", "1.5")), Error);
  EXPECT_THROW(checkpoint_from_json(with_member("strikes", "-1")), Error);
  EXPECT_THROW(
      checkpoint_from_json(with_member("strikes", "18446744073709551616")),
      Error);
  EXPECT_THROW(checkpoint_from_json(with_member("shard_count", "4294967297")),
               Error);
  EXPECT_THROW(checkpoint_from_json(with_member("shard", "4294967296")),
               Error);
  EXPECT_THROW(checkpoint_from_json(with_member("kind", "7")), Error);
  // The largest in-range values still read back exactly.
  EXPECT_EQ(checkpoint_from_json(with_member("shard_count", "4294967295"))
                .shard_count,
            4294967295u);
  EXPECT_EQ(checkpoint_from_json(with_member("strikes", "9007199254740992"))
                .strikes,
            9007199254740992u);
}

TEST(CheckpointValidateTest, AcceptsItsOwnCampaign) {
  const CampaignCheckpoint cp = sample_checkpoint();
  CampaignConfig root;
  root.seed = cp.root_seed;
  root.strikes = cp.strikes;
  EXPECT_NO_THROW(cp.validate_against(root, 2, 0x7e3a11ce, "temporal"));
}

TEST(CheckpointValidateTest, RejectsMismatchedParameters) {
  const CampaignCheckpoint cp = sample_checkpoint();
  CampaignConfig root;
  root.seed = cp.root_seed;
  root.strikes = cp.strikes;
  CampaignConfig wrong_seed = root;
  wrong_seed.seed ^= 1;
  EXPECT_THROW(cp.validate_against(wrong_seed, 2, 0x7e3a11ce, "temporal"),
               Error);
  CampaignConfig wrong_strikes = root;
  wrong_strikes.strikes += 1;
  EXPECT_THROW(cp.validate_against(wrong_strikes, 2, 0x7e3a11ce, "temporal"),
               Error);
  EXPECT_THROW(cp.validate_against(root, 3, 0x7e3a11ce, "temporal"), Error);
  EXPECT_THROW(cp.validate_against(root, 2, 0, "temporal"), Error);
  EXPECT_THROW(cp.validate_against(root, 2, 0x7e3a11ce, "static"), Error);
}

TEST(CheckpointValidateTest, RejectsInconsistentShardCounters) {
  CampaignCheckpoint cp = sample_checkpoint();
  CampaignConfig root;
  root.seed = cp.root_seed;
  root.strikes = cp.strikes;
  cp.shards[0].partial.masked += 1;  // masked+dre+due+sdc != done
  EXPECT_THROW(cp.validate_against(root, 2, 0x7e3a11ce, "temporal"), Error);
}

TEST(CheckpointStateTest, SnapshotRestoreRoundTripsTheRng) {
  CampaignShardState state = begin_campaign_shard(0x1234);
  for (int i = 0; i < 41; ++i) state.rng.next_u64();
  state.done = 41;
  state.partial = CampaignResult{41, 40, 1, 0, 0};

  CampaignShardState restored =
      restore_shard_state(snapshot_shard_state(0, 100, state));
  EXPECT_EQ(restored.done, state.done);
  EXPECT_EQ(restored.partial.masked, state.partial.masked);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(restored.rng.next_u64(), state.rng.next_u64());
}

TEST(CheckpointFileTest, StoreLoadRoundTrip) {
  const std::string path = temp_path("ftspm_ckpt_test");
  const CampaignCheckpoint cp = sample_checkpoint();
  store_checkpoint(cp, path);
  const CampaignCheckpoint back = load_checkpoint(path);
  EXPECT_EQ(back.root_seed, cp.root_seed);
  EXPECT_EQ(back.shards[0].rng_state, cp.shards[0].rng_state);
  std::remove(path.c_str());
  EXPECT_THROW(load_checkpoint(path), Error);
}

}  // namespace
}  // namespace ftspm::exec
