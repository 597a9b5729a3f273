#include "ftspm/workload/suite.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "ftspm/profile/profiler.h"
#include "ftspm/util/error.h"
#include "ftspm/workload/trace_io.h"

namespace ftspm {
namespace {

constexpr std::uint64_t kTestScale = 8;  // shrink traces for test speed

TEST(SuiteTest, TwelveBenchmarksListed) {
  EXPECT_EQ(all_benchmarks().size(), kMiBenchmarkCount);
  std::set<std::string> names;
  for (MiBenchmark b : all_benchmarks()) names.insert(to_string(b));
  EXPECT_EQ(names.size(), kMiBenchmarkCount);  // all distinct
}

/// Per-benchmark structural sweep.
class SuiteBenchmark : public ::testing::TestWithParam<MiBenchmark> {};

TEST_P(SuiteBenchmark, GeneratesAValidWorkload) {
  const Workload w = make_benchmark(GetParam(), kTestScale);
  EXPECT_EQ(w.program.name(), to_string(GetParam()));
  EXPECT_NO_THROW(validate_trace(w.program, w.trace));
  EXPECT_GT(w.total_accesses(), 0u);
}

// TraceBuilder::take() does not validate; profile_workload() does.
// Every suite trace, at the pipeline's scale and the bench's, must pass
// and come exactly sized: n events in ceil(n / 4096) chunks.
TEST_P(SuiteBenchmark, FullScaleTracesValidateAndAreExactlySized) {
  for (const std::uint64_t scale : {1u, 4u}) {
    const Workload w = make_benchmark(GetParam(), scale);
    EXPECT_NO_THROW(validate_trace(w.program, w.trace)) << "scale " << scale;
    EXPECT_EQ(w.trace.chunk_count(),
              (w.trace.size() + Trace::kChunkEvents - 1) / Trace::kChunkEvents)
        << "scale " << scale;
  }
}

// A Trace keeps its totals as events are appended; they must equal a
// walk over the events, for a generated trace and for one parsed back
// from its text form.
TEST_P(SuiteBenchmark, RunningTotalsEqualAWalk) {
  const auto walk = [](const Trace& trace) {
    std::pair<std::uint64_t, std::uint64_t> totals{0, 0};
    for (const TraceEvent& e : trace) {
      totals.first += e.accesses();
      totals.second += e.nominal_cycles();
    }
    return totals;
  };
  for (const std::uint64_t scale : {1u, 4u}) {
    const Workload w = make_benchmark(GetParam(), scale);
    const auto [accesses, cycles] = walk(w.trace);
    EXPECT_EQ(w.total_accesses(), accesses) << "scale " << scale;
    EXPECT_EQ(w.nominal_cycles(), cycles) << "scale " << scale;
    if (scale != 4) continue;
    const Workload parsed = parse_workload(serialize_workload(w));
    EXPECT_EQ(parsed.trace, w.trace);
    EXPECT_EQ(parsed.total_accesses(), accesses);
    EXPECT_EQ(parsed.nominal_cycles(), cycles);
  }
}

TEST_P(SuiteBenchmark, HasCodeDataAndOneStack) {
  const Workload w = make_benchmark(GetParam(), kTestScale);
  std::size_t code = 0, data = 0, stack = 0;
  std::set<std::string> names;
  for (const Block& blk : w.program.blocks()) {
    names.insert(blk.name);
    switch (blk.kind) {
      case BlockKind::Code: ++code; break;
      case BlockKind::Data: ++data; break;
      case BlockKind::Stack: ++stack; break;
    }
  }
  EXPECT_GE(code, 2u);
  EXPECT_GE(data, 2u);
  EXPECT_EQ(stack, 1u);
  EXPECT_EQ(names.size(), w.program.block_count());  // unique names
}

TEST_P(SuiteBenchmark, IsDeterministic) {
  const Workload a = make_benchmark(GetParam(), kTestScale);
  const Workload b = make_benchmark(GetParam(), kTestScale);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); i += 97) {
    EXPECT_EQ(a.trace[i].block, b.trace[i].block);
    EXPECT_EQ(a.trace[i].offset, b.trace[i].offset);
    EXPECT_EQ(a.trace[i].repeat, b.trace[i].repeat);
  }
}

TEST_P(SuiteBenchmark, ScaleDivisorShrinksTheTrace) {
  const Workload big = make_benchmark(GetParam(), kTestScale);
  const Workload small = make_benchmark(GetParam(), kTestScale * 8);
  EXPECT_LT(small.total_accesses(), big.total_accesses());
}

TEST_P(SuiteBenchmark, EveryBlockIsExercised) {
  const Workload w = make_benchmark(GetParam(), kTestScale);
  const ProgramProfile prof = profile_workload(w);
  for (std::size_t i = 0; i < w.program.block_count(); ++i) {
    EXPECT_GT(prof.blocks[i].accesses(), 0u)
        << "block " << w.program.block(static_cast<BlockId>(i)).name
        << " is never accessed";
  }
}

TEST_P(SuiteBenchmark, FetchTrafficDominatesButNotAbsurdly) {
  // Embedded kernels fetch more than they touch data, but memory
  // traffic must stay a meaningful share (the suite targets roughly
  // 2-5 fetches per data access).
  const Workload w = make_benchmark(GetParam(), kTestScale);
  const ProgramProfile prof = profile_workload(w);
  std::uint64_t fetches = 0, data = 0;
  for (std::size_t i = 0; i < w.program.block_count(); ++i) {
    if (w.program.block(static_cast<BlockId>(i)).is_code())
      fetches += prof.blocks[i].reads;
    else
      data += prof.blocks[i].accesses();
  }
  ASSERT_GT(data, 0u);
  const double ratio = static_cast<double>(fetches) / data;
  EXPECT_GT(ratio, 1.0) << "fetch share implausibly low";
  EXPECT_LT(ratio, 8.0) << "fetch share implausibly high";
}

INSTANTIATE_TEST_SUITE_P(All, SuiteBenchmark,
                         ::testing::ValuesIn(all_benchmarks()),
                         [](const ::testing::TestParamInfo<MiBenchmark>& i) {
                           return to_string(i.param);
                         });

TEST(SuiteTest, WriteMixSpansTheSuite) {
  // The evaluation relies on read-dominated and write-capable kernels
  // coexisting (Fig. 4): verify the suite spans that range.
  double min_ratio = 1.0, max_ratio = 0.0;
  for (MiBenchmark bench : all_benchmarks()) {
    const Workload w = make_benchmark(bench, kTestScale);
    const ProgramProfile prof = profile_workload(w);
    std::uint64_t reads = 0, writes = 0;
    for (std::size_t i = 0; i < w.program.block_count(); ++i) {
      if (w.program.block(static_cast<BlockId>(i)).is_code()) continue;
      reads += prof.blocks[i].reads;
      writes += prof.blocks[i].writes;
    }
    const double ratio =
        static_cast<double>(writes) / static_cast<double>(reads + writes);
    min_ratio = std::min(min_ratio, ratio);
    max_ratio = std::max(max_ratio, ratio);
  }
  EXPECT_LT(min_ratio, 0.15);  // a read-dominated kernel exists
  EXPECT_GT(max_ratio, 0.30);  // a write-heavy kernel exists
}

TEST(SuiteTest, RejectsZeroDivisor) {
  EXPECT_THROW(make_benchmark(MiBenchmark::Sha, 0), InvalidArgument);
}

}  // namespace
}  // namespace ftspm

namespace ftspm {
namespace {

TEST(SuiteTest, BlockGeometryRespectsTheTableIvRegions) {
  // Every data block is either SRAM-eligible (<= the 2 KiB protected
  // regions) or deliberately oversized (> 2 KiB, the "fits no SRAM
  // region" cases the evaluation depends on) — never in between in a
  // way that would make region fit checks flaky; and each block fits
  // the 12 KiB STT-RAM region individually.
  for (MiBenchmark bench : all_benchmarks()) {
    const Workload w = make_benchmark(bench, 16);
    for (const Block& blk : w.program.blocks()) {
      if (blk.is_code()) {
        EXPECT_LE(blk.size_bytes, 16u * 1024u) << blk.name;
        continue;
      }
      EXPECT_LE(blk.size_bytes, 12u * 1024u)
          << to_string(bench) << "/" << blk.name;
    }
  }
}

TEST(SuiteTest, CodeFootprintsBracketTheIspm) {
  // jpeg deliberately exceeds the 16 KiB I-SPM; everything else fits.
  for (MiBenchmark bench : all_benchmarks()) {
    const Workload w = make_benchmark(bench, 16);
    std::uint64_t code = 0;
    for (const Block& blk : w.program.blocks())
      if (blk.is_code()) code += blk.size_bytes;
    if (bench == MiBenchmark::Jpeg) {
      EXPECT_GT(code, 16u * 1024u);
    } else {
      EXPECT_LE(code, 16u * 1024u) << to_string(bench);
    }
  }
}

}  // namespace
}  // namespace ftspm
