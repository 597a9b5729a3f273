#include "ftspm/profile/profiler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <typeinfo>
#include <vector>

#include "ftspm/util/error.h"
#include "ftspm/util/rng.h"
#include "support/run_traces.h"

namespace ftspm {
namespace {

Program demo_program() {
  return Program("demo", {Block{"fn", BlockKind::Code, 256},     // 32 words
                          Block{"a", BlockKind::Data, 64},       // 8 words
                          Block{"b", BlockKind::Data, 64},       // 8 words
                          Block{"stack", BlockKind::Stack, 64}});
}

TEST(ProfilerTest, CountsReadsWritesAndFetches) {
  const Program p = demo_program();
  Workload w{p,
             {TraceEvent{0, AccessType::Fetch, 0, 0, 10},
              TraceEvent{1, AccessType::Read, 0, 0, 4},
              TraceEvent{1, AccessType::Write, 0, 0, 3},
              TraceEvent{2, AccessType::Read, 0, 2, 5}}};
  const ProgramProfile prof = profile_workload(w);
  EXPECT_EQ(prof.block(0).reads, 10u);  // fetches land in reads
  EXPECT_EQ(prof.block(1).reads, 4u);
  EXPECT_EQ(prof.block(1).writes, 3u);
  EXPECT_EQ(prof.block(2).reads, 5u);
  EXPECT_EQ(prof.total_accesses, 22u);
  EXPECT_EQ(prof.total_cycles, 22u);  // gap 0 everywhere
}

TEST(ProfilerTest, GapsExtendTheTimebase) {
  const Program p = demo_program();
  Workload w{p, {TraceEvent{1, AccessType::Read, 3, 0, 5}}};
  const ProgramProfile prof = profile_workload(w);
  EXPECT_EQ(prof.total_cycles, 20u);  // 5 * (3+1)
  EXPECT_EQ(prof.total_accesses, 5u);
}

TEST(ProfilerTest, ReferencesAreSameClassRuns) {
  const Program p = demo_program();
  // Data sequence: a a b a; code interleaved must not break data runs.
  Workload w{p,
             {TraceEvent{1, AccessType::Read, 0, 0, 2},
              TraceEvent{0, AccessType::Fetch, 0, 0, 4},
              TraceEvent{1, AccessType::Read, 0, 0, 2},   // still run 1
              TraceEvent{2, AccessType::Write, 0, 0, 1},  // b: run 1
              TraceEvent{1, AccessType::Read, 0, 0, 1}}};  // a: run 2
  const ProgramProfile prof = profile_workload(w);
  EXPECT_EQ(prof.block(1).references, 2u);
  EXPECT_EQ(prof.block(2).references, 1u);
  EXPECT_EQ(prof.block(0).references, 1u);
  EXPECT_DOUBLE_EQ(prof.block(1).avg_reads_per_reference(), 2.5);
}

TEST(ProfilerTest, ReferenceSequenceRecordsRuns) {
  const Program p = demo_program();
  Workload w{p,
             {TraceEvent{1, AccessType::Read, 0, 0, 2},
              TraceEvent{0, AccessType::Fetch, 0, 0, 4},
              TraceEvent{2, AccessType::Write, 0, 0, 1},
              TraceEvent{1, AccessType::Read, 0, 0, 1}}};
  const ProgramProfile prof = profile_workload(w);
  EXPECT_EQ(prof.reference_sequence, (ReferenceSequence{1, 0, 2, 1}));
}

TEST(ProfilerTest, LifetimeIsTimeAsCurrentBlockOfClass) {
  const Program p = demo_program();
  // a reads 2 cycles, then fetch 10 cycles (a stays current data
  // block), then b 3 cycles to end.
  Workload w{p,
             {TraceEvent{1, AccessType::Read, 0, 0, 2},
              TraceEvent{0, AccessType::Fetch, 0, 0, 10},
              TraceEvent{2, AccessType::Read, 0, 0, 3}}};
  const ProgramProfile prof = profile_workload(w);
  EXPECT_EQ(prof.block(1).lifetime_cycles, 12u);  // own 2 + fetch 10
  EXPECT_EQ(prof.block(2).lifetime_cycles, 3u);
  EXPECT_EQ(prof.block(0).lifetime_cycles, 13u);  // fetch to end of trace
}

TEST(ProfilerTest, AceIntervalIsWriteToLastRead) {
  const Program p = demo_program();
  // Write word 0 at t=1, read it at t=2 and t=5, overwrite at t=8.
  Workload w{p,
             {TraceEvent{1, AccessType::Write, 0, 0, 1},   // t=1
              TraceEvent{1, AccessType::Read, 0, 0, 1},    // t=2
              TraceEvent{1, AccessType::Read, 2, 0, 1},    // t=5 (gap 2)
              TraceEvent{1, AccessType::Write, 2, 0, 1}}};  // t=8
  const ProgramProfile prof = profile_workload(w);
  // Interval [1, 5] = 4 cycles; the final write's value is never read.
  EXPECT_EQ(prof.block(1).ace_cycles, 4u);
}

TEST(ProfilerTest, UnreadValuesContributeNoAceTime) {
  const Program p = demo_program();
  Workload w{p,
             {TraceEvent{1, AccessType::Write, 0, 0, 1},
              TraceEvent{1, AccessType::Write, 0, 0, 1},
              TraceEvent{1, AccessType::Write, 0, 0, 1}}};
  const ProgramProfile prof = profile_workload(w);
  EXPECT_EQ(prof.block(1).ace_cycles, 0u);
}

TEST(ProfilerTest, InitialValuesAreLiveUntilLastRead) {
  const Program p = demo_program();
  // Word read without ever being written: the loaded value was needed
  // from program start to that read.
  Workload w{p, {TraceEvent{1, AccessType::Read, 4, 3, 1}}};  // t=5
  const ProgramProfile prof = profile_workload(w);
  EXPECT_EQ(prof.block(1).ace_cycles, 5u);
}

TEST(ProfilerTest, CodeAceRunsUntilLastFetch) {
  const Program p = demo_program();
  Workload w{p,
             {TraceEvent{0, AccessType::Fetch, 0, 0, 10},   // ends t=10
              TraceEvent{1, AccessType::Read, 0, 0, 30}}};  // ends t=40
  const ProgramProfile prof = profile_workload(w);
  // 32 instruction words live from t=0 to the last fetch at t=10.
  EXPECT_EQ(prof.block(0).ace_cycles, 32u * 10u);
  EXPECT_NEAR(prof.ace_fraction(p, 0), 10.0 / 40.0, 1e-12);
}

TEST(ProfilerTest, AceFractionIsBounded) {
  const Program p = demo_program();
  Workload w{p,
             {TraceEvent{1, AccessType::Write, 0, 0, 8},
              TraceEvent{1, AccessType::Read, 0, 0, 8},
              TraceEvent{1, AccessType::Read, 0, 0, 8}}};
  const ProgramProfile prof = profile_workload(w);
  const double f = prof.ace_fraction(p, 1);
  EXPECT_GE(f, 0.0);
  EXPECT_LE(f, 1.0);
}

TEST(ProfilerTest, MaxWordWritesTracksHottestWord) {
  const Program p = demo_program();
  // Block a has 8 words; write 20 words starting at 0: words 0..3 get
  // 3 writes, words 4..7 get 2.
  Workload w{p, {TraceEvent{1, AccessType::Write, 0, 0, 20}}};
  const ProgramProfile prof = profile_workload(w);
  EXPECT_EQ(prof.block(1).max_word_writes, 3u);
}

TEST(ProfilerTest, StackCallsAndMaxStack) {
  const Program p = demo_program();
  Workload w{p,
             {TraceEvent{0, AccessType::CallEnter, 0, 64, 1},
              TraceEvent{0, AccessType::CallEnter, 0, 32, 1},
              TraceEvent{0, AccessType::CallExit, 0, 0, 1},
              TraceEvent{0, AccessType::CallEnter, 0, 16, 1},
              TraceEvent{0, AccessType::CallExit, 0, 0, 1},
              TraceEvent{0, AccessType::CallExit, 0, 0, 1}}};
  const ProgramProfile prof = profile_workload(w);
  EXPECT_EQ(prof.block(0).stack_calls, 3u);
  // Outer activation: grew from 0 to 96 bytes at its deepest.
  EXPECT_EQ(prof.block(0).max_stack_bytes, 96u);
}

// max_stack_bytes against its definition: over every activation of a
// block, the deepest the stack got while it was open, less the depth
// at its entry. The brute force raises every open activation at each
// call; random nested and recursive call trees with uneven frames.
TEST(ProfilerTest, MaxStackMatchesABruteForceOverOpenActivations) {
  const Program p("calls", {Block{"f0", BlockKind::Code, 64},
                            Block{"f1", BlockKind::Code, 64},
                            Block{"f2", BlockKind::Code, 64},
                            Block{"f3", BlockKind::Code, 64},
                            Block{"f4", BlockKind::Code, 64},
                            Block{"stack", BlockKind::Stack, 64}});
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    Trace trace;
    struct Open {
      BlockId fn;
      std::uint32_t entry;
      std::uint32_t max;
    };
    std::vector<Open> open;
    std::vector<std::uint32_t> expected(p.block_count(), 0);
    std::uint32_t depth = 0;
    const auto exit_one = [&] {
      const Open act = open.back();
      open.pop_back();
      expected[act.fn] = std::max(expected[act.fn], act.max - act.entry);
      depth = act.entry;
      trace.push_back(TraceEvent{act.fn, AccessType::CallExit, 0, 0, 1});
    };
    for (int step = 0; step < 400; ++step) {
      const std::uint64_t pick = rng.next_below(10);
      if (pick < 5 && open.size() < 30) {
        // Recursion half the time when a call is open.
        const BlockId fn =
            !open.empty() && rng.next_bool(0.5)
                ? open.back().fn
                : static_cast<BlockId>(rng.next_below(5));
        const std::uint32_t frame =
            4 * static_cast<std::uint32_t>(rng.next_below(65));
        trace.push_back(TraceEvent{fn, AccessType::CallEnter, 0, frame, 1});
        depth += frame;
        open.push_back(Open{fn, depth - frame, depth});
        for (Open& act : open) act.max = std::max(act.max, depth);
      } else if (pick < 9 && !open.empty()) {
        exit_one();
      } else {
        trace.push_back(TraceEvent{
            open.empty() ? 0 : open.back().fn, AccessType::Fetch, 0, 0, 1});
      }
    }
    while (!open.empty()) exit_one();

    const ProgramProfile prof = profile_workload(Workload{p, trace});
    for (BlockId b = 0; b < 5; ++b)
      EXPECT_EQ(prof.block(b).max_stack_bytes, expected[b])
          << "seed " << seed << " block " << b;
  }
}

TEST(ProfilerTest, SusceptibilityIsReferencesTimesLifetime) {
  const Program p = demo_program();
  Workload w{p,
             {TraceEvent{1, AccessType::Read, 0, 0, 4},
              TraceEvent{2, AccessType::Read, 0, 0, 4},
              TraceEvent{1, AccessType::Read, 0, 0, 4}}};
  const ProgramProfile prof = profile_workload(w);
  const BlockProfile& a = prof.block(1);
  EXPECT_DOUBLE_EQ(a.susceptibility(),
                   static_cast<double>(a.references) *
                       static_cast<double>(a.lifetime_cycles));
  EXPECT_EQ(a.references, 2u);
}

TEST(ProfilerTest, RejectsMalformedTraces) {
  const Program p = demo_program();
  Workload w{p, {TraceEvent{9, AccessType::Read, 0, 0, 1}}};
  EXPECT_THROW(profile_workload(w), Error);
}

// The profiler validates each event in the walk that profiles it. An
// unknown block throws what validate_trace() throws for it: a plain
// Error, "trace references unknown block", naming the event.
TEST(ProfilerTest, RejectsOutOfRangeBlockIdLikeValidateTrace) {
  const Program p = demo_program();
  const Workload w{p,
                   {TraceEvent{1, AccessType::Write, 0, 0, 4},
                    TraceEvent{9, AccessType::Read, 0, 0, 1}}};
  try {
    profile_workload(w);
    ADD_FAILURE() << "no throw";
  } catch (const Error& e) {
    EXPECT_EQ(typeid(e), typeid(Error));
    const std::string what = e.what();
    EXPECT_EQ(what.substr(what.find(" — ")),
              " — trace references unknown block (event 1)");
  }
}

// Every malformed trace of ValidateTraceTest, alone and behind valid
// events the walk profiles first: profile_workload() throws the error
// validate_trace() throws, message for message.
TEST(ProfilerTest, ThrowsValidateTracesFirstErrorOnMalformedTraces) {
  const auto first_error = [](const auto& consume) -> std::string {
    try {
      consume();
    } catch (const Error& e) {
      EXPECT_EQ(typeid(e), typeid(Error));
      return e.what();
    }
    return "no error";
  };
  const std::vector<Workload> cases = testing_support::malformed_workloads();
  for (std::size_t k = 0; k < cases.size(); ++k) {
    SCOPED_TRACE("malformed case " + std::to_string(k));
    const Workload& w = cases[k];
    const std::string want =
        first_error([&] { validate_trace(w.program, w.trace); });
    EXPECT_NE(want, "no error");
    EXPECT_EQ(first_error([&] { profile_workload(w); }), want);
  }
}

// The profile counts accesses in its own walk; the count is the
// workload's.
TEST(ProfilerTest, TotalAccessesMatchTheWorkloads) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Workload w = testing_support::random_run_workload(seed);
    EXPECT_EQ(profile_workload(w).total_accesses, w.total_accesses())
        << "seed " << seed;
  }
}

TEST(ProfilerTest, WrappingWritesDistributeWear) {
  const Program p = demo_program();
  // 16 writes over an 8-word block = exactly 2 per word.
  Workload w{p, {TraceEvent{1, AccessType::Write, 0, 0, 16}}};
  const ProgramProfile prof = profile_workload(w);
  EXPECT_EQ(prof.block(1).max_word_writes, 2u);
}

}  // namespace
}  // namespace ftspm

namespace ftspm {
namespace {

TEST(ProfilerTest, ReferenceSequenceLengthEqualsReferenceSum) {
  const Program p("demo", {Block{"fn", BlockKind::Code, 256},
                           Block{"a", BlockKind::Data, 64},
                           Block{"b", BlockKind::Data, 64}});
  Workload w{p,
             {TraceEvent{0, AccessType::Fetch, 0, 0, 4},
              TraceEvent{1, AccessType::Read, 0, 0, 2},
              TraceEvent{2, AccessType::Write, 0, 0, 2},
              TraceEvent{0, AccessType::Fetch, 0, 0, 4},
              TraceEvent{1, AccessType::Read, 0, 0, 2},
              TraceEvent{1, AccessType::Read, 0, 0, 2}}};
  const ProgramProfile prof = profile_workload(w);
  std::uint64_t reference_sum = 0;
  for (const BlockProfile& bp : prof.blocks) reference_sum += bp.references;
  EXPECT_EQ(prof.reference_sequence.size(), reference_sum);
}

TEST(ProfilerTest, MarkersAdvanceNoTime) {
  const Program p("demo", {Block{"fn", BlockKind::Code, 256},
                           Block{"a", BlockKind::Data, 64},
                           Block{"b", BlockKind::Data, 64}});
  Workload w{p,
             {TraceEvent{0, AccessType::CallEnter, 0, 64, 1},
              TraceEvent{0, AccessType::Fetch, 0, 0, 3},
              TraceEvent{0, AccessType::CallExit, 0, 0, 1}}};
  const ProgramProfile prof = profile_workload(w);
  EXPECT_EQ(prof.total_cycles, 3u);
}

// A 2^32 - 1 write run on a 3-word block costs three word steps, and its
// writes spread over the words by 64-bit index: offset 2 + visit 2^32 - 2
// is word 2^32 % 3 = 1, not word 0 as a 32-bit wrap would make it.
TEST(ProfilerTest, HugeWriteRunOnAnOddSizedBlock) {
  const Program p("demo", {Block{"three", BlockKind::Data, 24}});
  const std::uint64_t repeat = 4294967295u;
  Workload w{p,
             {TraceEvent{0, AccessType::Write, 0, 2, 4294967295u},
              TraceEvent{0, AccessType::Read, 0, 0, 3}}};
  const ProgramProfile prof = profile_workload(w);
  EXPECT_EQ(prof.block(0).writes, repeat);
  EXPECT_EQ(prof.block(0).max_word_writes, repeat / 3);
  EXPECT_EQ(prof.total_cycles, repeat + 3);
  // Last writes: word 2 at t = repeat - 2, word 0 at repeat - 1, word 1
  // at repeat; reads of words 0, 1, 2 at repeat + 1, + 2, + 3.
  EXPECT_EQ(prof.block(0).ace_cycles, 2u + 2u + 5u);
}

}  // namespace
}  // namespace ftspm
