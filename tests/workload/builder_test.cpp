#include "ftspm/workload/trace_builder.h"

#include <gtest/gtest.h>

#include <vector>

#include "ftspm/util/error.h"

namespace ftspm {
namespace {

Program demo_program() {
  return Program("demo", {Block{"main", BlockKind::Code, 1024},
                          Block{"leaf", BlockKind::Code, 512},
                          Block{"arr", BlockKind::Data, 512},
                          Block{"stack", BlockKind::Stack, 256}});
}

TEST(TraceBuilderTest, TakeValidatesAndBalances) {
  const Program p = demo_program();
  TraceBuilder b(p);
  b.call(0, 32);
  b.fetch(10);
  b.read(2, 4);
  b.ret();
  const Trace trace = b.take();
  EXPECT_NO_THROW(validate_trace(p, trace));
  EXPECT_EQ(trace.front().type, AccessType::CallEnter);
  EXPECT_EQ(trace.back().type, AccessType::CallExit);
}

TEST(TraceBuilderTest, TakeWithOpenCallThrows) {
  const Program p = demo_program();
  TraceBuilder b(p);
  b.call(0, 32);
  EXPECT_THROW(b.take(), InvalidArgument);
}

TEST(TraceBuilderTest, RetWithoutCallThrows) {
  const Program p = demo_program();
  TraceBuilder b(p);
  EXPECT_THROW(b.ret(), InvalidArgument);
}

TEST(TraceBuilderTest, FetchNeedsActiveFrame) {
  const Program p = demo_program();
  TraceBuilder b(p);
  EXPECT_THROW(b.fetch(1), InvalidArgument);
  EXPECT_NO_THROW(b.fetch_from(0, 1));  // explicit target works anywhere
}

TEST(TraceBuilderTest, FetchTargetsInnermostFrame) {
  const Program p = demo_program();
  TraceBuilder b(p);
  b.call(0, 32);
  b.call(1, 16);
  b.fetch(5);
  b.ret();
  b.ret();
  const auto trace = b.take();
  // Find the fetch event; it must target block 1 (leaf).
  bool found = false;
  for (const auto& e : trace) {
    if (e.type == AccessType::Fetch) {
      EXPECT_EQ(e.block, 1u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(TraceBuilderTest, SpillAndReloadTouchStack) {
  const Program p = demo_program();
  TraceBuilder b(p);
  b.call(0, 64, 4);  // spill 4 words
  b.ret(4);          // reload 4 words
  const auto trace = b.take();
  std::uint64_t stack_reads = 0, stack_writes = 0;
  for (const auto& e : trace) {
    if (e.block != 3) continue;
    if (e.type == AccessType::Read) stack_reads += e.repeat;
    if (e.type == AccessType::Write) stack_writes += e.repeat;
  }
  EXPECT_EQ(stack_writes, 4u);
  EXPECT_EQ(stack_reads, 4u);
}

TEST(TraceBuilderTest, MaxStackTracksNesting) {
  const Program p = demo_program();
  TraceBuilder b(p);
  b.call(0, 64);
  EXPECT_EQ(b.max_stack_bytes(), 64u);
  b.call(1, 32);
  EXPECT_EQ(b.max_stack_bytes(), 96u);
  b.ret();
  b.call(1, 16);  // shallower: max unchanged
  b.ret();
  b.ret();
  EXPECT_EQ(b.max_stack_bytes(), 96u);
  EXPECT_EQ(b.call_depth(), 0u);
}

TEST(TraceBuilderTest, StackOpsWithoutStackBlockThrow) {
  Program p("nostack", {Block{"main", BlockKind::Code, 1024},
                        Block{"arr", BlockKind::Data, 512}});
  TraceBuilder b(p);
  b.call(0, 32);
  EXPECT_THROW(b.stack_write(1), InvalidArgument);
  EXPECT_THROW(b.stack_read(1), InvalidArgument);
  b.ret();
}

TEST(TraceBuilderTest, DataAccessRejectsBadTargets) {
  const Program p = demo_program();
  TraceBuilder b(p);
  EXPECT_THROW(b.read(0, 1), InvalidArgument);      // code block
  EXPECT_THROW(b.read(2, 1, 64), InvalidArgument);  // offset out of range
  EXPECT_THROW(b.fetch_from(2, 1), InvalidArgument);
}

TEST(TraceBuilderTest, LargeCountsAreChunked) {
  const Program p = demo_program();
  TraceBuilder b(p);
  const std::uint64_t big = (1ULL << 32) + 5;  // exceeds u32 repeat
  b.read(2, big);
  const auto trace = b.take();
  std::uint64_t total = 0;
  for (const auto& e : trace) total += e.accesses();
  EXPECT_EQ(total, big);
  EXPECT_GE(trace.size(), 2u);
}

// A count above a u32 repeat is split into several events; together
// they must visit each word exactly as one continuous run does, each
// piece starting where the previous one stopped. (A 3-word block alone
// would not catch pieces that restart at `offset`: 2^32 - 1 is a
// multiple of 3, as it is of 5 and 17, but not of 2 or 7.)
TEST(TraceBuilderTest, LargeCountsContinueAcrossChunks) {
  const std::uint64_t big = 2 * ((1ULL << 32) - 1) + 5;
  for (const std::uint32_t words : {3u, 2u, 7u}) {
    Program p("tiny", {Block{"fn", BlockKind::Code, words * 8},
                       Block{"arr", BlockKind::Data, words * 8}});
    for (std::uint32_t offset = 0; offset < words; ++offset) {
      TraceBuilder b(p);
      b.write(1, big, offset);
      b.fetch_from(0, big);
      const auto trace = b.take();
      ASSERT_GE(trace.size(), 6u);
      for (const AccessType type : {AccessType::Write, AccessType::Fetch}) {
        const std::uint64_t start = type == AccessType::Fetch ? 0 : offset;
        std::vector<std::uint64_t> got(words, 0), want(words, 0);
        for (const TraceEvent& e : trace) {
          if (e.type != type) continue;
          WordRun(e.offset, e.repeat, words)
              .for_each_distinct([&](std::uint64_t first, std::uint64_t len,
                                     std::uint64_t visits, std::uint64_t) {
                for (std::uint64_t i = 0; i < len; ++i)
                  got[first + i] += visits;
              });
        }
        WordRun(start, big, words)
            .for_each_distinct([&](std::uint64_t first, std::uint64_t len,
                                   std::uint64_t visits, std::uint64_t) {
              for (std::uint64_t i = 0; i < len; ++i)
                want[first + i] += visits;
            });
        EXPECT_EQ(got, want) << words << " words, offset " << offset << ", "
                             << to_string(type);
      }
    }
  }
}

// The builder enforces at each call every invariant validate_trace()
// checks, which is why take() does not validate: a rejected call
// throws there and leaves no event behind.
TEST(TraceBuilderTest, RejectsEachValidateTraceViolationAtTheCall) {
  const Program p = demo_program();
  TraceBuilder b(p);
  const BlockId unknown = 4;
  EXPECT_THROW(b.read(unknown, 1), InvalidArgument);
  EXPECT_THROW(b.write(unknown, 1), InvalidArgument);
  EXPECT_THROW(b.fetch_from(unknown, 1), InvalidArgument);
  EXPECT_THROW(b.call(unknown, 32), InvalidArgument);
  EXPECT_THROW(b.read(0, 1), InvalidArgument);  // data access to code
  EXPECT_THROW(b.write(1, 1), InvalidArgument);
  EXPECT_THROW(b.read_at(0, 0), InvalidArgument);
  EXPECT_THROW(b.fetch_from(2, 1), InvalidArgument);  // fetch from data
  EXPECT_THROW(b.fetch_from(3, 1), InvalidArgument);  // ... and stack
  EXPECT_THROW(b.read(2, 1, 64), InvalidArgument);    // offset >= words
  EXPECT_THROW(b.write(3, 1, 32), InvalidArgument);
  EXPECT_THROW(b.write_at(2, 1000), InvalidArgument);
  EXPECT_THROW(b.ret(), InvalidArgument);  // ret without call
  b.call(0, 32);
  EXPECT_THROW(b.take(), InvalidArgument);  // open frame
  b.ret();
  const auto trace = b.take();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].type, AccessType::CallEnter);
  EXPECT_EQ(trace[1].type, AccessType::CallExit);
  EXPECT_NO_THROW(validate_trace(p, trace));
}

// take() hands over the builder's chunks, ceil(n / 4096) of them for n
// events, in order, and leaves the builder empty for reuse.
TEST(TraceBuilderTest, TakeReturnsAnExactlySizedVectorAcrossChunks) {
  const Program p = demo_program();
  TraceBuilder b(p);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{4096}, std::size_t{4097},
                              std::size_t{20'000}}) {
    for (std::size_t i = 0; i < n; ++i)
      b.read_at(2, static_cast<std::uint32_t>(i % 64),
                static_cast<std::uint16_t>(i % 1000));
    const auto trace = b.take();
    ASSERT_EQ(trace.size(), n);
    EXPECT_EQ(trace.chunk_count(),
              (n + Trace::kChunkEvents - 1) / Trace::kChunkEvents);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(trace[i].offset, i % 64) << i;
      ASSERT_EQ(trace[i].gap, i % 1000) << i;
    }
  }
}

TEST(TraceBuilderTest, CallRejectsMisalignedFrame) {
  const Program p = demo_program();
  TraceBuilder b(p);
  EXPECT_THROW(b.call(0, 30), InvalidArgument);
  EXPECT_THROW(b.call(2, 32), InvalidArgument);  // data block target
}

TEST(TraceBuilderTest, SingleWordHelpers) {
  const Program p = demo_program();
  TraceBuilder b(p);
  b.read_at(2, 7);
  b.write_at(2, 9, 2);
  const auto trace = b.take();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].offset, 7u);
  EXPECT_EQ(trace[0].repeat, 1u);
  EXPECT_EQ(trace[1].offset, 9u);
  EXPECT_EQ(trace[1].gap, 2u);
}

}  // namespace
}  // namespace ftspm

namespace ftspm {
namespace {

TEST(TraceBuilderTest, DeepStacksWrapTheStackBlock) {
  // Frames deeper than the stack block: offsets must stay in bounds
  // (the builder wraps rather than overflowing).
  Program p("deep", {Block{"fn", BlockKind::Code, 512},
                     Block{"stack", BlockKind::Stack, 64}});  // 8 words
  TraceBuilder b(p);
  for (int d = 0; d < 6; ++d) b.call(0, 32, 2);  // 192 B of frames
  for (int d = 0; d < 6; ++d) b.ret(1);
  const auto trace = b.take();
  for (const TraceEvent& e : trace) {
    if (e.block != 1) continue;
    EXPECT_LT(e.offset, 8u);
  }
  // The high-water mark records the true (unwrapped) depth.
  EXPECT_EQ(b.max_stack_bytes(), 192u);
}

TEST(TraceBuilderTest, MaxStackSurvivesTake) {
  Program p("deep", {Block{"fn", BlockKind::Code, 512},
                     Block{"stack", BlockKind::Stack, 64}});
  TraceBuilder b(p);
  b.call(0, 48);
  b.call(0, 48);
  b.ret();
  b.ret();
  (void)b.take();
  EXPECT_EQ(b.max_stack_bytes(), 96u);
}

}  // namespace
}  // namespace ftspm
