#include "ftspm/workload/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "ftspm/util/error.h"
#include "ftspm/util/rng.h"

namespace ftspm {
namespace {

Program demo_program() {
  return Program("demo", {Block{"fn", BlockKind::Code, 1024},
                          Block{"arr", BlockKind::Data, 512},
                          Block{"stack", BlockKind::Stack, 256}});
}

TEST(TraceEventTest, NominalCyclesAndAccesses) {
  const TraceEvent read{1, AccessType::Read, 0, 0, 10};
  EXPECT_EQ(read.nominal_cycles(), 10u);
  EXPECT_EQ(read.accesses(), 10u);

  const TraceEvent gapped{1, AccessType::Write, 3, 0, 5};
  EXPECT_EQ(gapped.nominal_cycles(), 20u);  // 5 * (3 + 1)

  const TraceEvent marker{0, AccessType::CallEnter, 0, 64, 1};
  EXPECT_TRUE(marker.is_marker());
  EXPECT_EQ(marker.nominal_cycles(), 0u);
  EXPECT_EQ(marker.accesses(), 0u);
}

TEST(WorkloadTest, TotalsSumEvents) {
  Workload w{demo_program(),
             {TraceEvent{0, AccessType::Fetch, 0, 0, 100},
              TraceEvent{1, AccessType::Read, 1, 0, 50},
              TraceEvent{0, AccessType::CallEnter, 0, 16, 1}}};
  EXPECT_EQ(w.total_accesses(), 150u);
  EXPECT_EQ(w.nominal_cycles(), 200u);  // 100 + 50*2
}

/// n read events on block 1 whose offset is the event's index mod 64
/// and whose gap is its index mod 7: each is told apart from its
/// neighbours.
Trace numbered_trace(std::size_t n) {
  Trace t;
  for (std::size_t i = 0; i < n; ++i)
    t.push_back(TraceEvent{1, AccessType::Read,
                           static_cast<std::uint16_t>(i % 7),
                           static_cast<std::uint32_t>(i % 64),
                           static_cast<std::uint32_t>(1 + i / 64)});
  return t;
}

TEST(TraceTest, IndexesAcrossChunkBoundaries) {
  const std::size_t n = 3 * Trace::kChunkEvents + 5;
  const Trace t = numbered_trace(n);
  ASSERT_EQ(t.size(), n);
  ASSERT_EQ(Trace::kChunkEvents, 4096u);
  for (const std::size_t i : {std::size_t{0}, std::size_t{4095},
                              std::size_t{4096}, std::size_t{4097},
                              std::size_t{8191}, std::size_t{8192}, n - 1}) {
    EXPECT_EQ(t[i].offset, i % 64) << i;
    EXPECT_EQ(t[i].gap, i % 7) << i;
    EXPECT_EQ(t[i].repeat, 1 + i / 64) << i;
  }
  EXPECT_EQ(t.front(), t[0]);
  EXPECT_EQ(t.back(), t[n - 1]);

  // Iteration visits every event once, in order, across the chunks.
  std::size_t i = 0;
  for (const TraceEvent& e : t) {
    ASSERT_EQ(e, t[i]) << i;
    ++i;
  }
  EXPECT_EQ(i, n);
  EXPECT_EQ(std::distance(t.begin(), t.end()),
            static_cast<std::ptrdiff_t>(n));
  EXPECT_EQ(*std::next(t.begin(), 4097), t[4097]);
  EXPECT_EQ(std::count_if(t.begin(), t.end(),
                          [](const TraceEvent& e) { return e.offset == 0; }),
            static_cast<std::ptrdiff_t>((n + 63) / 64));
}

TEST(TraceTest, ChunksCoverEveryEventExactlyOnce) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{4095}, std::size_t{4096},
        std::size_t{4097}, std::size_t{10'000}}) {
    const Trace t = numbered_trace(n);
    ASSERT_EQ(t.chunk_count(),
              (n + Trace::kChunkEvents - 1) / Trace::kChunkEvents)
        << n;
    std::size_t next = 0;
    for (std::size_t k = 0; k < t.chunk_count(); ++k) {
      const std::span<const TraceEvent> chunk = t.chunk(k);
      EXPECT_EQ(chunk.size(), std::min(Trace::kChunkEvents, n - next))
          << n << " chunk " << k;
      for (const TraceEvent& e : chunk) {
        ASSERT_EQ(&e, &t[next]) << n << " event " << next;
        ++next;
      }
    }
    EXPECT_EQ(next, n);
    EXPECT_EQ(t.empty(), n == 0);
  }
}

TEST(TraceTest, InitializerListAndRangeConstructionKeepOrder) {
  const TraceEvent a{0, AccessType::Fetch, 0, 0, 10};
  const TraceEvent b{1, AccessType::Read, 2, 5, 3};
  const TraceEvent c{0, AccessType::CallEnter, 0, 16, 1};
  const Trace t{a, b, c};
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], a);
  EXPECT_EQ(t[1], b);
  EXPECT_EQ(t[2], c);
  const std::vector<TraceEvent> v{a, b, c};
  EXPECT_EQ(Trace(v.begin(), v.end()), t);
  EXPECT_TRUE(Trace{}.empty());
  EXPECT_EQ(Trace{}.chunk_count(), 0u);
}

TEST(TraceTest, AppendCopyMoveAndEquality) {
  const Trace whole = numbered_trace(9000);
  Trace built = numbered_trace(4000);
  built.append(std::next(whole.begin(), 4000), whole.end());
  EXPECT_EQ(built, whole);
  EXPECT_EQ(built.chunk_count(), 3u);

  Trace copy = whole;
  EXPECT_EQ(copy, whole);
  EXPECT_NE(&copy[0], &whole[0]);  // deep: its own chunks
  copy.push_back(TraceEvent{0, AccessType::Fetch, 0, 0, 1});
  EXPECT_NE(copy, whole);
  EXPECT_EQ(copy.size(), whole.size() + 1);

  Trace assigned = numbered_trace(3);
  assigned = whole;
  EXPECT_EQ(assigned, whole);

  // A different event at the last slot of a full chunk breaks equality.
  Trace differs = numbered_trace(4095);
  differs.push_back(TraceEvent{1, AccessType::Write, 0, 0, 1});
  differs.append(std::next(whole.begin(), 4096), whole.end());
  ASSERT_EQ(differs.size(), whole.size());
  EXPECT_NE(differs, whole);

  const TraceEvent* first = &copy[0];
  Trace moved = std::move(copy);
  EXPECT_EQ(&moved[0], first);  // a move hands the chunks over
  EXPECT_EQ(moved.size(), whole.size() + 1);
  EXPECT_TRUE(copy.empty());
  EXPECT_EQ(copy.chunk_count(), 0u);
  EXPECT_EQ(copy.total_accesses(), 0u);

  Trace target = numbered_trace(5);
  target = std::move(moved);
  EXPECT_EQ(&target[0], first);
  EXPECT_TRUE(moved.empty());
  EXPECT_EQ(moved.nominal_cycles(), 0u);
}

TEST(TraceTest, RunningTotalsEqualAWalk) {
  Rng rng(11);
  Trace t;
  const auto expect_walk_totals = [&t](int at) {
    std::uint64_t accesses = 0, cycles = 0;
    for (const TraceEvent& e : t) {
      accesses += e.accesses();
      cycles += e.nominal_cycles();
    }
    ASSERT_EQ(t.total_accesses(), accesses) << at;
    ASSERT_EQ(t.nominal_cycles(), cycles) << at;
  };
  for (int i = 0; i < 20'000; ++i) {
    const bool marker = rng.next_bool(0.2);
    t.push_back(TraceEvent{
        0,
        marker ? (rng.next_bool(0.5) ? AccessType::CallEnter
                                     : AccessType::CallExit)
               : static_cast<AccessType>(rng.next_below(3)),
        static_cast<std::uint16_t>(rng.next_below(1u << 16)),
        0,
        marker ? 1u : static_cast<std::uint32_t>(rng.next_below(1u << 31))});
    if (i % 4093 == 0) expect_walk_totals(i);
  }
  expect_walk_totals(20'000);
  const Trace copy = t;
  EXPECT_EQ(copy.total_accesses(), t.total_accesses());
  EXPECT_EQ(copy.nominal_cycles(), t.nominal_cycles());
}

TEST(ValidateTraceTest, AcceptsWellFormedTrace) {
  const Program p = demo_program();
  const Trace t{
      TraceEvent{0, AccessType::CallEnter, 0, 16, 1},
      TraceEvent{0, AccessType::Fetch, 0, 0, 10},
      TraceEvent{1, AccessType::Read, 0, 63, 4},
      TraceEvent{2, AccessType::Write, 0, 0, 2},
      TraceEvent{0, AccessType::CallExit, 0, 0, 1}};
  EXPECT_NO_THROW(validate_trace(p, t));
}

TEST(ValidateTraceTest, RejectsUnknownBlock) {
  const Program p = demo_program();
  EXPECT_THROW(
      validate_trace(p, {TraceEvent{9, AccessType::Read, 0, 0, 1}}), Error);
}

TEST(ValidateTraceTest, RejectsFetchFromData) {
  const Program p = demo_program();
  EXPECT_THROW(
      validate_trace(p, {TraceEvent{1, AccessType::Fetch, 0, 0, 1}}), Error);
}

TEST(ValidateTraceTest, RejectsDataAccessToCode) {
  const Program p = demo_program();
  EXPECT_THROW(
      validate_trace(p, {TraceEvent{0, AccessType::Read, 0, 0, 1}}), Error);
  EXPECT_THROW(
      validate_trace(p, {TraceEvent{0, AccessType::Write, 0, 0, 1}}), Error);
}

TEST(ValidateTraceTest, RejectsOffsetOutsideBlock) {
  const Program p = demo_program();
  EXPECT_THROW(
      validate_trace(p, {TraceEvent{1, AccessType::Read, 0, 64, 1}}), Error);
}

TEST(ValidateTraceTest, RejectsUnbalancedCalls) {
  const Program p = demo_program();
  // Exit without enter.
  EXPECT_THROW(
      validate_trace(p, {TraceEvent{0, AccessType::CallExit, 0, 0, 1}}),
      Error);
  // Enter without exit.
  EXPECT_THROW(
      validate_trace(p, {TraceEvent{0, AccessType::CallEnter, 0, 16, 1}}),
      Error);
}

TEST(ValidateTraceTest, RejectsRepeatedMarkers) {
  const Program p = demo_program();
  EXPECT_THROW(
      validate_trace(p, {TraceEvent{0, AccessType::CallEnter, 0, 16, 2},
                         TraceEvent{0, AccessType::CallExit, 0, 0, 1}}),
      Error);
}

TEST(ValidateTraceTest, RejectsCallIntoData) {
  const Program p = demo_program();
  EXPECT_THROW(
      validate_trace(p, {TraceEvent{1, AccessType::CallEnter, 0, 16, 1},
                         TraceEvent{1, AccessType::CallExit, 0, 0, 1}}),
      Error);
}

TEST(AccessTypeTest, ToString) {
  EXPECT_STREQ(to_string(AccessType::Fetch), "fetch");
  EXPECT_STREQ(to_string(AccessType::Read), "read");
  EXPECT_STREQ(to_string(AccessType::Write), "write");
  EXPECT_STREQ(to_string(AccessType::CallEnter), "call-enter");
  EXPECT_STREQ(to_string(AccessType::CallExit), "call-exit");
}

// Every (offset, repeat, words) up to a few laps: the ranges cover the
// visits in order, and the distinct-word walk gives each word its visit
// count and last visit, all as a word-by-word walk of (offset + k) %
// words finds them.
TEST(WordRunTest, MatchesAWordByWordWalk) {
  for (std::uint64_t words = 1; words <= 9; ++words) {
    for (std::uint64_t offset = 0; offset < words; ++offset) {
      for (std::uint64_t repeat = 1; repeat <= 4 * words + 3; ++repeat) {
        const WordRun run(offset, repeat, words);
        std::vector<std::uint64_t> walked;
        std::vector<std::uint64_t> count(words, 0), last(words, 0);
        for (std::uint64_t k = 0; k < repeat; ++k) {
          const std::uint64_t w = (offset + k) % words;
          walked.push_back(w);
          ++count[w];
          last[w] = k;
        }
        std::vector<std::uint64_t> ranged;
        run.for_each_range(0, repeat, [&](std::uint64_t first,
                                          std::uint64_t len,
                                          std::uint64_t k0) {
          ASSERT_EQ(k0, ranged.size());
          ASSERT_LE(first + len, words);
          for (std::uint64_t i = 0; i < len; ++i) ranged.push_back(first + i);
        });
        ASSERT_EQ(ranged, walked);

        std::vector<std::uint64_t> distinct;
        run.for_each_distinct([&](std::uint64_t first, std::uint64_t len,
                                  std::uint64_t visits,
                                  std::uint64_t last_visit) {
          ASSERT_LE(first + len, words);
          for (std::uint64_t i = 0; i < len; ++i) {
            const std::uint64_t w = first + i;
            distinct.push_back(w);
            ASSERT_EQ(visits, count[w]) << "word " << w;
            ASSERT_EQ(last_visit + i, last[w]) << "word " << w;
          }
        });
        const std::vector<std::uint64_t> first_visits(
            walked.begin(),
            walked.begin() + static_cast<std::ptrdiff_t>(
                                 std::min(repeat, words)));
        ASSERT_EQ(distinct, first_visits);
      }
    }
  }
}

// Regression: the word index used to be computed as (offset + k) % words
// in 32 bits, so a run with offset + repeat > 2^32 on a block whose size
// is not a power of two wrapped at 2^32 and hit the wrong words.
TEST(WordRunTest, HugeRunOnAnOddSizedBlockSpreadsEvenly) {
  const std::uint64_t repeat = 4294967295u;
  const WordRun run(2, repeat, 3);
  std::vector<std::uint64_t> writes(3, 0);
  std::uint64_t last_word = 0, last_visit = 0;
  run.for_each_distinct([&](std::uint64_t first, std::uint64_t len,
                            std::uint64_t visits, std::uint64_t last) {
    for (std::uint64_t i = 0; i < len; ++i) {
      writes[first + i] += visits;
      if (last + i > last_visit) {
        last_visit = last + i;
        last_word = first + i;
      }
    }
  });
  EXPECT_EQ(writes[0] + writes[1] + writes[2], repeat);
  const auto [lo, hi] = std::minmax_element(writes.begin(), writes.end());
  EXPECT_LE(*hi - *lo, 1u);
  // The last visit, 2 + (2^32 - 2) = 2^32, lands on word 2^32 % 3 = 1.
  EXPECT_EQ(last_visit, repeat - 1);
  EXPECT_EQ(last_word, 1u);
  run.for_each_range(repeat - 1, 1, [&](std::uint64_t first, std::uint64_t,
                                        std::uint64_t) { last_word = first; });
  EXPECT_EQ(last_word, 1u);
}

}  // namespace
}  // namespace ftspm
