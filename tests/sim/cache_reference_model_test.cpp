// Property test: the production cache against an executable reference
// model (per-set LRU lists, the textbook definition). Random address
// streams must produce identical hit/miss/writeback sequences, whether
// they come one word at a time or as run-length access_run() calls.
#include <gtest/gtest.h>

#include <list>
#include <vector>

#include "ftspm/sim/cache.h"
#include "ftspm/util/rng.h"

namespace ftspm {
namespace {

/// Textbook set-associative LRU write-back cache.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& cfg)
      : cfg_(cfg), sets_(cfg.size_bytes / (cfg.line_bytes * cfg.ways)) {
    lines_.resize(sets_);
  }

  CacheAccessResult access(std::uint64_t addr, bool is_write) {
    const std::uint64_t line = addr / cfg_.line_bytes;
    const std::uint64_t set = line % sets_;
    const std::uint64_t tag = line / sets_;
    auto& lru = lines_[set];  // front = most recently used
    for (auto it = lru.begin(); it != lru.end(); ++it) {
      if (it->tag == tag) {
        it->dirty |= is_write;
        lru.splice(lru.begin(), lru, it);
        return {true, false};
      }
    }
    bool writeback = false;
    if (lru.size() == cfg_.ways) {
      writeback = lru.back().dirty;
      lru.pop_back();
    }
    lru.push_front(Line{tag, is_write});
    return {false, writeback};
  }

 private:
  struct Line {
    std::uint64_t tag;
    bool dirty;
  };
  CacheConfig cfg_;
  std::uint64_t sets_;
  std::vector<std::list<Line>> lines_;
};

class CacheVsReference
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint32_t>> {};

TEST_P(CacheVsReference, IdenticalBehaviourOnRandomStreams) {
  const auto [ways, seed] = GetParam();
  const CacheConfig cfg{1024, 32, ways, 1};
  Cache cache(cfg);
  ReferenceCache reference(cfg);
  Rng rng(seed);
  for (int i = 0; i < 20'000; ++i) {
    // Mix of localized and scattered addresses, reads and writes.
    const std::uint64_t addr =
        rng.next_bool(0.7) ? rng.next_below(4 * 1024)       // working set
                           : rng.next_below(1ULL << 20);    // far misses
    const bool is_write = rng.next_bool(0.3);
    const CacheAccessResult got = cache.access(addr, is_write);
    const CacheAccessResult want = reference.access(addr, is_write);
    ASSERT_EQ(got.hit, want.hit) << "access " << i;
    ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
  }
}

// access_run(addr, m) against m reference accesses to consecutive words
// of one line. Runs start anywhere in the line (mid-line included) and
// end at or before its last word; half are single words. The first
// reference access must match the run's result and the rest must hit;
// later misses and writebacks then check that a run leaves the same LRU
// order as its m single accesses.
TEST_P(CacheVsReference, RunsMatchWordByWordAccesses) {
  const auto [ways, seed] = GetParam();
  const CacheConfig cfg{1024, 32, ways, 1};
  const std::uint64_t line_words = cfg.line_bytes / 8;
  Cache cache(cfg);
  ReferenceCache reference(cfg);
  Rng rng(seed);
  std::uint64_t accesses = 0, misses = 0, writebacks = 0;
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t word = rng.next_bool(0.7)
                                   ? rng.next_below(4 * 1024 / 8)
                                   : rng.next_below((1ULL << 20) / 8);
    const std::uint64_t room = line_words - word % line_words;
    const std::uint64_t m = rng.next_bool(0.5) ? 1 : 1 + rng.next_below(room);
    const bool is_write = rng.next_bool(0.3);
    const CacheAccessResult got = cache.access_run(word * 8, m, is_write);
    const CacheAccessResult want = reference.access(word * 8, is_write);
    ASSERT_EQ(got.hit, want.hit) << "run " << i;
    ASSERT_EQ(got.writeback, want.writeback) << "run " << i;
    for (std::uint64_t k = 1; k < m; ++k) {
      const CacheAccessResult rest =
          reference.access((word + k) * 8, is_write);
      ASSERT_TRUE(rest.hit) << "run " << i << " word " << k;
      ASSERT_FALSE(rest.writeback);
    }
    accesses += m;
    misses += want.hit ? 0 : 1;
    writebacks += want.writeback ? 1 : 0;
  }
  EXPECT_EQ(cache.stats().accesses(), accesses);
  EXPECT_EQ(cache.stats().misses(), misses);
  EXPECT_EQ(cache.stats().writebacks, writebacks);
}

// Targeted set-level sequences the random streams rarely produce, in
// lockstep with the reference: cold sets, whose invalid ways must all
// fill (in way order, the LRU order) before any valid line is evicted;
// sets of dirty lines, whose victims must write back; and reset(),
// after which nothing is resident, nothing is dirty and the statistics
// restart.
TEST_P(CacheVsReference, ColdSetsDirtyVictimsAndReset) {
  const auto [ways, seed] = GetParam();
  const CacheConfig cfg{1024, 32, ways, 1};
  const std::uint64_t sets = cfg.size_bytes / (cfg.line_bytes * ways);
  Cache cache(cfg);
  ReferenceCache reference(cfg);
  Rng rng(seed);
  int step = 0;
  const auto access = [&](std::uint64_t set, std::uint64_t tag,
                          bool is_write) {
    const std::uint64_t addr =
        (tag * sets + set) * cfg.line_bytes + 8 * rng.next_below(4);
    const CacheAccessResult got = cache.access(addr, is_write);
    const CacheAccessResult want = reference.access(addr, is_write);
    EXPECT_EQ(got.hit, want.hit) << "step " << step;
    EXPECT_EQ(got.writeback, want.writeback) << "step " << step;
    ++step;
    return got;
  };

  // Each round starts on a cold cache: new, then reset() while the same
  // set holds dirty lines, old_tag among them.
  const std::uint64_t set = rng.next_below(sets);
  const std::uint64_t old_tag = 1 + rng.next_below(1000);
  const std::uint64_t new_tag = old_tag + ways;
  for (int round = 0; round < 3; ++round) {
    // Cold set: every way fills with a miss and no writeback, and then
    // every line is still resident.
    for (std::uint32_t w = 0; w < ways; ++w) {
      const CacheAccessResult r = access(set, old_tag + w, w % 2 == 1);
      EXPECT_FALSE(r.hit);
      EXPECT_FALSE(r.writeback);
    }
    for (std::uint32_t w = 0; w < ways; ++w)
      EXPECT_TRUE(access(set, old_tag + w, true).hit);
    // A full set of dirty lines: each new tag evicts the least recently
    // used of them and writes it back.
    for (std::uint32_t w = 0; w < ways; ++w) {
      const CacheAccessResult r = access(set, new_tag + w, false);
      EXPECT_FALSE(r.hit);
      EXPECT_TRUE(r.writeback);
    }
    // The evicted lines are gone; their clean successors leave quietly.
    const CacheAccessResult back = access(set, old_tag, false);
    EXPECT_FALSE(back.hit);
    EXPECT_FALSE(back.writeback);
    // Random traffic, then reset() with dirty lines resident.
    for (int i = 0; i < 500; ++i)
      access(rng.next_below(sets), rng.next_below(16), rng.next_bool(0.5));
    access(set, old_tag, true);
    for (std::uint32_t w = 1; w < ways; ++w) access(set, new_tag + w, true);
    cache.reset();
    reference = ReferenceCache(cfg);
    EXPECT_EQ(cache.stats().accesses(), 0u);
    EXPECT_EQ(cache.stats().misses(), 0u);
    EXPECT_EQ(cache.stats().writebacks, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WaysAndSeeds, CacheVsReference,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(1u, 2u, 3u)),
    [](const ::testing::TestParamInfo<std::tuple<std::uint32_t,
                                                 std::uint32_t>>& info) {
      return "ways" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace ftspm
