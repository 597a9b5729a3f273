#include "ftspm/workload/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
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
/// and whose gap is its index mod 2: each is told apart from its
/// neighbours, and each fits a slot.
Trace numbered_trace(std::size_t n) {
  Trace t;
  for (std::size_t i = 0; i < n; ++i)
    t.push_back(TraceEvent{1, AccessType::Read,
                           static_cast<std::uint16_t>(i % 2),
                           static_cast<std::uint32_t>(i % 64),
                           static_cast<std::uint32_t>(1 + i / 64)});
  return t;
}

constexpr std::size_t K = Trace::kChunkEvents;

TEST(TraceTest, IndexesAcrossChunkBoundaries) {
  const std::size_t n = 3 * K + 5;
  const Trace t = numbered_trace(n);
  ASSERT_EQ(t.size(), n);
  ASSERT_EQ(K, 16384u);  // 64 KiB of 4-byte slots
  for (const std::size_t i :
       {std::size_t{0}, K - 1, K, K + 1, 2 * K - 1, 2 * K, n - 1}) {
    EXPECT_EQ(t[i].offset, i % 64) << i;
    EXPECT_EQ(t[i].gap, i % 2) << i;
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
  EXPECT_EQ(*std::next(t.begin(), K + 1), t[K + 1]);
  EXPECT_EQ(std::count_if(t.begin(), t.end(),
                          [](const TraceEvent& e) { return e.offset == 0; }),
            static_cast<std::ptrdiff_t>((n + 63) / 64));
}

TEST(TraceTest, ChunksCoverEveryEventExactlyOnce) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, K - 1, K, K + 1, 2 * K + 1'000}) {
    const Trace t = numbered_trace(n);
    ASSERT_EQ(t.chunk_count(), (n + K - 1) / K) << n;
    std::size_t next = 0;
    for (std::size_t k = 0; k < t.chunk_count(); ++k) {
      const TraceChunk chunk = t.chunk(k);
      EXPECT_EQ(chunk.size(), std::min(K, n - next)) << n << " chunk " << k;
      EXPECT_EQ(chunk.slots().size(), chunk.size());
      for (const TraceEvent& e : chunk) {
        ASSERT_EQ(e, t[next]) << n << " event " << next;
        ++next;
      }
    }
    EXPECT_EQ(next, n);
    EXPECT_EQ(t.empty(), n == 0);
    EXPECT_EQ(t.escape_count(), 0u);
    EXPECT_EQ(t.stored_bytes(), t.chunk_count() * K * 4);
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

/// Where chunk 0's slots live: a deep copy has its own, a move hands
/// them over.
const TraceSlot::Word* first_slot(const Trace& t) {
  return t.chunk(0).slots().data();
}

TEST(TraceTest, AppendCopyMoveAndEquality) {
  const Trace whole = numbered_trace(2 * K + 808);
  Trace built = numbered_trace(K / 2);
  built.append(std::next(whole.begin(), K / 2), whole.end());
  EXPECT_EQ(built, whole);
  EXPECT_EQ(built.chunk_count(), 3u);

  Trace copy = whole;
  EXPECT_EQ(copy, whole);
  EXPECT_NE(first_slot(copy), first_slot(whole));  // deep: its own chunks
  copy.push_back(TraceEvent{0, AccessType::Fetch, 0, 0, 1});
  EXPECT_NE(copy, whole);
  EXPECT_EQ(copy.size(), whole.size() + 1);

  Trace assigned = numbered_trace(3);
  assigned = whole;
  EXPECT_EQ(assigned, whole);

  // A different event at the last slot of a full chunk breaks equality.
  Trace differs = numbered_trace(K - 1);
  differs.push_back(TraceEvent{1, AccessType::Write, 0, 0, 1});
  differs.append(std::next(whole.begin(), K), whole.end());
  ASSERT_EQ(differs.size(), whole.size());
  EXPECT_NE(differs, whole);

  const TraceSlot::Word* first = first_slot(copy);
  Trace moved = std::move(copy);
  EXPECT_EQ(first_slot(moved), first);  // a move hands the chunks over
  EXPECT_EQ(moved.size(), whole.size() + 1);
  EXPECT_TRUE(copy.empty());
  EXPECT_EQ(copy.chunk_count(), 0u);
  EXPECT_EQ(copy.total_accesses(), 0u);

  Trace target = numbered_trace(5);
  target = std::move(moved);
  EXPECT_EQ(first_slot(target), first);
  EXPECT_TRUE(moved.empty());
  EXPECT_EQ(moved.nominal_cycles(), 0u);
}

// Every field at the edges of its slot width and of its own type, for
// every access type: each event reads back exactly as appended, and
// only those past a slot field's width take an escape.
TEST(TraceSlotTest, RoundTripsEveryFieldAtItsExtremes) {
  const std::uint32_t wide[] = {0u,    1u,     15u,           16u,       4095u,
                                4096u, 65536u, UINT32_MAX - 1, UINT32_MAX};
  const std::uint16_t gaps[] = {0, 1, 2, 0x7fff, UINT16_MAX};
  const AccessType types[] = {AccessType::Fetch, AccessType::Read,
                              AccessType::Write, AccessType::CallEnter,
                              AccessType::CallExit};
  std::vector<TraceEvent> events;
  for (const AccessType type : types)
    for (const std::uint16_t gap : gaps)
      for (const std::uint32_t block : wide)
        for (const std::uint32_t offset : wide)
          for (const std::uint32_t repeat : wide)
            events.push_back(TraceEvent{block, type, gap, offset, repeat});
  std::size_t wide_events = 0;
  for (const TraceEvent& e : events) {
    const bool fits =
        e.gap < 2 && e.block < 16 && e.offset < 4096 && e.repeat < 4096;
    EXPECT_EQ(TraceSlot::fits(e), fits);
    wide_events += !fits;
  }
  const Trace t(events.begin(), events.end());
  ASSERT_EQ(t.size(), events.size());
  EXPECT_EQ(t.escape_count(), wide_events);
  for (std::size_t i = 0; i < events.size(); ++i)
    ASSERT_EQ(t[i], events[i]) << i;
  EXPECT_TRUE(std::equal(t.begin(), t.end(), events.begin(), events.end()));
}

// A slot that fits puts each field where TraceSlot documents it.
TEST(TraceSlotTest, PacksTheDocumentedLayout) {
  static_assert(sizeof(TraceSlot::Word) == 4);
  const TraceEvent e{15, AccessType::Write, 1, 0x123, 0xffe};
  ASSERT_TRUE(TraceSlot::fits(e));
  const TraceSlot::Word slot = TraceSlot::pack(e);
  EXPECT_EQ(slot & 7, 2u);
  EXPECT_EQ(slot >> 3 & 1, 1u);
  EXPECT_EQ(slot >> 4 & 0xf, 15u);
  EXPECT_EQ(slot >> 8 & 0xfff, 0x123u);
  EXPECT_EQ(slot >> 20, 0xffeu);
  EXPECT_EQ(TraceSlot::decode(slot, {}), e);
  EXPECT_EQ(TraceSlot::escape(5), 5u << 3 | 7);
}

// The escape index fills the slot's upper 29 bits; the first index past
// them throws, with the message alone, instead of wrapping to index 0.
TEST(TraceSlotTest, EscapeIndexPastTwentyNineBitsThrows) {
  constexpr std::size_t kLimit = std::size_t{1} << 29;
  EXPECT_EQ(TraceSlot::escape(kLimit - 1), UINT32_MAX);
  EXPECT_EQ(TraceSlot::escape(kLimit - 1) >> 3, kLimit - 1);
  for (const std::size_t index : {kLimit, kLimit + 1, std::size_t{1} << 32}) {
    try {
      TraceSlot::escape(index);
      ADD_FAILURE() << "escape(" << index << ") did not throw";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "a trace holds at most 2^29 escaped events");
    }
  }
}

/// The read at `i` of block 1: an escape (offset 2^16 + i) when `wide`,
/// a plain slot otherwise.
TraceEvent marked(std::size_t i, bool wide) {
  return TraceEvent{1, AccessType::Read, static_cast<std::uint16_t>(i % 2),
                    static_cast<std::uint32_t>(wide ? 65536 + i : i % 64),
                    static_cast<std::uint32_t>(1 + i % 3)};
}

// Escapes on either side of each chunk boundary (and in a run across
// one) read back through operator[], both iterators, a copy and a move,
// and leave the running totals what the events sum to.
TEST(TraceTest, EscapesAtChunkBoundariesSurviveCopyMoveAndIndexing) {
  const std::size_t n = 3 * K + 2;
  const auto wide_at = [](std::size_t i) {
    const std::size_t r = i % K;
    return r == 0 || r == K - 1 || (i >= 2 * K - 3 && i <= 2 * K + 2) ||
           i % 1000 == 7;
  };
  std::vector<TraceEvent> events;
  Trace t;
  std::uint64_t accesses = 0, cycles = 0;
  std::size_t wide = 0;
  for (std::size_t i = 0; i < n; ++i) {
    events.push_back(marked(i, wide_at(i)));
    t.push_back(events.back());
    accesses += events.back().accesses();
    cycles += events.back().nominal_cycles();
    wide += wide_at(i);
  }
  ASSERT_EQ(t.escape_count(), wide);
  EXPECT_EQ(t.total_accesses(), accesses);
  EXPECT_EQ(t.nominal_cycles(), cycles);
  EXPECT_GE(t.stored_bytes(), 4 * K * sizeof(TraceSlot::Word) +
                                  wide * sizeof(TraceEvent));

  const auto expect_events = [&](const Trace& got, const char* what) {
    ASSERT_EQ(got.size(), n) << what;
    for (const std::size_t i : {std::size_t{0}, K - 1, K, 2 * K - 2, 2 * K,
                                2 * K + 1, 3 * K, n - 1})
      EXPECT_EQ(got[i], events[i]) << what << " " << i;
    std::size_t i = 0;
    for (std::size_t k = 0; k < got.chunk_count(); ++k)
      for (const TraceEvent& e : got.chunk(k)) ASSERT_EQ(e, events[i++]) << what;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), events.begin(),
                           events.end()))
        << what;
    EXPECT_EQ(got.escape_count(), wide) << what;
    EXPECT_EQ(got.total_accesses(), accesses) << what;
    EXPECT_EQ(got.nominal_cycles(), cycles) << what;
  };
  expect_events(t, "built");
  const Trace copy = t;
  expect_events(copy, "copy");
  EXPECT_EQ(copy, t);
  Trace moved = Trace(copy);
  const TraceSlot::Word* first = first_slot(moved);
  Trace target = std::move(moved);
  EXPECT_EQ(first_slot(target), first);
  expect_events(target, "moved");
  EXPECT_EQ(moved.escape_count(), 0u);

  // Appending after a copy leaves the copy's escapes alone.
  target.push_back(marked(n, true));
  expect_events(copy, "copy after the original grew");
  EXPECT_EQ(target.back(), marked(n, true));
  EXPECT_NE(target, copy);

  // A trace equal event for event but built a second time compares
  // equal, escapes and all.
  EXPECT_EQ(Trace(events.begin(), events.end()), t);
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

/// The message validate_trace gives `trace` on the demo program, after
/// the check's expression and source location; "" when it passes.
std::string validation_error(const Trace& trace) {
  try {
    validate_trace(demo_program(), trace);
  } catch (const Error& e) {
    const std::string what = e.what();
    const std::string dash = " \u2014 ";
    const std::string::size_type at = what.find(dash);
    return at == std::string::npos ? what : what.substr(at + dash.size());
  }
  return "";
}

// The checker names the failing event by its index, wherever the event
// sits: at a chunk's first or last slot, and stored as an escape or not.
TEST(ValidateTraceTest, MessagesNameTheEventAcrossChunksAndEscapes) {
  const auto fails_at = [](std::size_t at, const TraceEvent& bad) {
    Trace t;
    for (std::size_t i = 0; i < at; ++i) t.push_back(marked(i, false));
    t.push_back(bad);
    t.push_back(marked(at + 1, false));
    return validation_error(t);
  };
  const TraceEvent past_end{1, AccessType::Read, 0, 64, 1};   // a slot
  const TraceEvent far_past{1, AccessType::Read, 0, 70000, 1};  // escape
  const TraceEvent no_block{9000, AccessType::Read, 0, 0, 1};  // escape
  const TraceEvent empty_run{1, AccessType::Write, 0, 0, 0};
  const auto event = [](std::size_t i) {
    return " (event " + with_commas(static_cast<std::uint64_t>(i)) + ")";
  };
  EXPECT_EQ(fails_at(0, past_end),
            "data offset outside block arr (event 0)");
  EXPECT_EQ(fails_at(K - 1, past_end),
            "data offset outside block arr" + event(K - 1));
  EXPECT_EQ(fails_at(K, far_past),
            "data offset outside block arr" + event(K));
  EXPECT_EQ(fails_at(2 * K - 1, no_block),
            "trace references unknown block" + event(2 * K - 1));
  EXPECT_EQ(fails_at(K + 3, empty_run), "empty access run" + event(K + 3));
  EXPECT_EQ(validation_error({TraceEvent{0, AccessType::Fetch, 0, 0, 1},
                              TraceEvent{0, AccessType::CallExit, 0, 0, 1}}),
            "unbalanced call markers (event 1)");
  EXPECT_EQ(validation_error({TraceEvent{0, AccessType::CallEnter, 0, 16, 1}}),
            "trace ends with open calls");
  EXPECT_EQ(validation_error({TraceEvent{0, AccessType::CallEnter, 0, 70000,
                                         2}}),
            "markers must have repeat == 1 (event 0)");
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
