#include "ftspm/workload/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ftspm/util/error.h"

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

TEST(ValidateTraceTest, AcceptsWellFormedTrace) {
  const Program p = demo_program();
  const std::vector<TraceEvent> t{
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
