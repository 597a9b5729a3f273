#include "ftspm/workload/case_study.h"

#include <gtest/gtest.h>

#include "ftspm/profile/profiler.h"
#include "ftspm/util/error.h"

namespace ftspm {
namespace {

// The full-scale trace is ~40M accesses; generate once per suite.
const Workload& full_case_study() {
  static const Workload w = make_case_study();
  return w;
}
const ProgramProfile& full_profile() {
  static const ProgramProfile p = profile_workload(full_case_study());
  return p;
}

TEST(CaseStudyTest, BlockStructureMatchesPaper) {
  const Program& p = full_case_study().program;
  ASSERT_EQ(p.block_count(), 8u);
  using B = CaseStudyBlocks;
  EXPECT_EQ(p.block(B::kMain).name, "Main");
  EXPECT_EQ(p.block(B::kMul).name, "Mul");
  EXPECT_EQ(p.block(B::kAdd).name, "Add");
  EXPECT_EQ(p.block(B::kArray1).name, "Array1");
  EXPECT_EQ(p.block(B::kStack).name, "Stack");
  EXPECT_TRUE(p.block(B::kMain).is_code());
  EXPECT_EQ(p.block(B::kStack).kind, BlockKind::Stack);
  // Main exceeds the 16 KiB I-SPM (the paper's size-limitation case).
  EXPECT_GT(p.block(B::kMain).size_bytes, 16u * 1024u);
  EXPECT_LE(p.block(B::kMul).size_bytes + p.block(B::kAdd).size_bytes,
            16u * 1024u);
}

// TraceBuilder::take() does not validate; profile_workload() does.
// The builder's trace must pass and come exactly sized: n events in
// ceil(n / 4096) chunks.
TEST(CaseStudyTest, TraceValidates) {
  const Workload& w = full_case_study();
  EXPECT_NO_THROW(validate_trace(w.program, w.trace));
  EXPECT_EQ(w.trace.chunk_count(),
            (w.trace.size() + Trace::kChunkEvents - 1) / Trace::kChunkEvents);
}

// Table I, reproduced exactly: reads and writes per block.
struct TableIRow {
  BlockId block;
  std::uint64_t reads;
  std::uint64_t writes;
};

class CaseStudyTableI : public ::testing::TestWithParam<TableIRow> {};

TEST_P(CaseStudyTableI, ReadWriteCountsMatchPaperExactly) {
  const TableIRow row = GetParam();
  const BlockProfile& bp = full_profile().block(row.block);
  EXPECT_EQ(bp.reads, row.reads);
  EXPECT_EQ(bp.writes, row.writes);
}

using B = CaseStudyBlocks;
INSTANTIATE_TEST_SUITE_P(
    PaperRows, CaseStudyTableI,
    ::testing::Values(TableIRow{B::kMain, 3'327'700, 0},
                      TableIRow{B::kMul, 25'973'000, 0},
                      TableIRow{B::kAdd, 906'200, 0},
                      TableIRow{B::kArray1, 2'181'630, 1'114'894},
                      TableIRow{B::kArray2, 1'113'200, 484},
                      TableIRow{B::kArray3, 2'178'000, 1'113'684},
                      TableIRow{B::kArray4, 1'113'200, 484},
                      TableIRow{B::kStack, 234'009, 177'052}),
    [](const ::testing::TestParamInfo<TableIRow>& info) {
      return "block" + std::to_string(info.param.block);
    });

TEST(CaseStudyTest, StackCallsMatchPaperExactly) {
  const ProgramProfile& prof = full_profile();
  EXPECT_EQ(prof.block(B::kMain).stack_calls, 397'561u);
  EXPECT_EQ(prof.block(B::kMul).stack_calls, 6'400u);
  EXPECT_EQ(prof.block(B::kAdd).stack_calls, 7'100u);
}

TEST(CaseStudyTest, MaxStackMatchesPaperExactly) {
  const ProgramProfile& prof = full_profile();
  EXPECT_EQ(prof.block(B::kMain).max_stack_bytes, 348u);
  EXPECT_EQ(prof.block(B::kMul).max_stack_bytes, 72u);
  EXPECT_EQ(prof.block(B::kAdd).max_stack_bytes, 72u);
}

TEST(CaseStudyTest, SusceptibilityOrderingDrivesTableII) {
  // Table II hinges on: Array1 and Array3 above the evictee average,
  // Stack far below it.
  const ProgramProfile& prof = full_profile();
  const double a1 = prof.block(B::kArray1).susceptibility();
  const double a3 = prof.block(B::kArray3).susceptibility();
  const double st = prof.block(B::kStack).susceptibility();
  const double avg = (a1 + a3 + st) / 3.0;
  EXPECT_GE(a1, avg);
  EXPECT_GE(a3, avg);
  EXPECT_LT(st, avg / 2.0);
}

TEST(CaseStudyTest, GenerationIsDeterministic) {
  const CaseStudyTargets small = CaseStudyTargets{}.scaled_down(64);
  const Workload a = make_case_study(small);
  const Workload b = make_case_study(small);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].block, b.trace[i].block);
    EXPECT_EQ(a.trace[i].offset, b.trace[i].offset);
    EXPECT_EQ(a.trace[i].repeat, b.trace[i].repeat);
  }
}

TEST(CaseStudyTest, ScaledDownPreservesStructure) {
  const CaseStudyTargets small = CaseStudyTargets{}.scaled_down(32);
  const Workload w = make_case_study(small);
  EXPECT_NO_THROW(validate_trace(w.program, w.trace));
  EXPECT_EQ(w.program.block_count(), 8u);
  EXPECT_LT(w.total_accesses(), full_case_study().total_accesses() / 8);
  const ProgramProfile prof = profile_workload(w);
  // Structure survives: Mul still dominates fetches; arrays still
  // read-and-written; stack still bounded by 348 bytes.
  EXPECT_GT(prof.block(B::kMul).reads, prof.block(B::kAdd).reads);
  EXPECT_GT(prof.block(B::kArray1).writes, 0u);
  EXPECT_EQ(prof.block(B::kMain).max_stack_bytes, 348u);
}

TEST(CaseStudyTest, ScaledDownRejectsZeroDivisor) {
  EXPECT_THROW(CaseStudyTargets{}.scaled_down(0), InvalidArgument);
}

TEST(CaseStudyTest, ArraysSizedForTheEccRegion) {
  // "About 2 KB" arrays that individually fit the 2 KiB SEC-DED region
  // (Algorithm 1 checks block-vs-region size, not aggregates).
  const Program& p = full_case_study().program;
  EXPECT_LE(p.block(B::kArray1).size_bytes, 2048u);
  EXPECT_GE(p.block(B::kArray1).size_bytes, 1536u);
}

}  // namespace
}  // namespace ftspm
