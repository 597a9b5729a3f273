#include "ftspm/core/transfer_schedule.h"

#include <gtest/gtest.h>

#include "ftspm/core/spm_config.h"
#include "ftspm/core/systems.h"
#include "ftspm/util/error.h"
#include "ftspm/workload/case_study.h"

namespace ftspm {
namespace {

const TechnologyLibrary& lib() {
  static const TechnologyLibrary kLib;
  return kLib;
}

/// Program with three data blocks and one function; a 2-block-sized
/// data region forces time-sharing.
struct Fixture {
  Program program{"p",
                  {Block{"fn", BlockKind::Code, 512},
                   Block{"a", BlockKind::Data, 512},   // 64 words
                   Block{"b", BlockKind::Data, 512},
                   Block{"c", BlockKind::Data, 512}}};
  SpmLayout layout{
      "hybrid",
      {SpmRegionSpec{"I", SpmSpace::Instruction, 1024, lib().stt_ram()},
       SpmRegionSpec{"D", SpmSpace::Data, 1024, lib().stt_ram()}}};

  ProgramProfile profile_for(ReferenceSequence sequence,
                             std::vector<std::uint64_t> writes = {}) {
    ProgramProfile prof;
    prof.blocks.resize(program.block_count());
    for (std::size_t i = 0; i < prof.blocks.size(); ++i) {
      prof.blocks[i].id = static_cast<BlockId>(i);
      prof.blocks[i].reads = 10;
      prof.blocks[i].writes =
          i < writes.size() ? writes[i] : 0;
      prof.blocks[i].references = 1;
      prof.total_accesses += prof.blocks[i].accesses();
    }
    prof.total_cycles = prof.total_accesses;
    prof.reference_sequence = std::move(sequence);
    return prof;
  }

  MappingPlan plan_all_data_to(RegionId region) {
    std::vector<BlockMapping> m(program.block_count());
    for (std::size_t i = 0; i < m.size(); ++i) {
      m[i] = BlockMapping{static_cast<BlockId>(i),
                          program.block(static_cast<BlockId>(i)).is_code()
                              ? RegionId{0}
                              : region,
                          MappingReason::Mapped};
    }
    return MappingPlan(layout, std::move(m));
  }
};

TEST(TransferScheduleTest, FirstTouchMapsIn) {
  Fixture f;
  const ProgramProfile prof = f.profile_for({1, 2, 1, 2});
  const TransferSchedule sched = TransferSchedule::generate(
      f.program, prof, f.plan_all_data_to(1), f.layout);
  // a and b coexist (64 + 64 = 128 words = capacity): two map-ins, no
  // evictions, nothing dirty.
  ASSERT_EQ(sched.commands().size(), 2u);
  EXPECT_EQ(sched.commands()[0].op, TransferCommand::Op::MapIn);
  EXPECT_EQ(sched.words_in(), 128u);
  EXPECT_EQ(sched.words_out(), 0u);
}

TEST(TransferScheduleTest, AddressesAreDisjointWhileCoResident) {
  Fixture f;
  const ProgramProfile prof = f.profile_for({1, 2});
  const TransferSchedule sched = TransferSchedule::generate(
      f.program, prof, f.plan_all_data_to(1), f.layout);
  ASSERT_EQ(sched.commands().size(), 2u);
  const TransferCommand& first = sched.commands()[0];
  const TransferCommand& second = sched.commands()[1];
  EXPECT_EQ(first.base_word, 0u);
  EXPECT_EQ(second.base_word, 64u);  // first-fit after a
}

TEST(TransferScheduleTest, LruEvictionReusesTheHole) {
  Fixture f;
  // a, b fill the region; touching c evicts a (LRU), reusing a's base.
  const ProgramProfile prof = f.profile_for({1, 2, 3});
  const TransferSchedule sched = TransferSchedule::generate(
      f.program, prof, f.plan_all_data_to(1), f.layout);
  // map a, map b, unmap a, map c.
  ASSERT_EQ(sched.commands().size(), 4u);
  EXPECT_EQ(sched.commands()[2].op, TransferCommand::Op::Unmap);
  EXPECT_EQ(sched.commands()[2].block, 1u);
  EXPECT_EQ(sched.commands()[3].op, TransferCommand::Op::MapIn);
  EXPECT_EQ(sched.commands()[3].block, 3u);
  EXPECT_EQ(sched.commands()[3].base_word, 0u);  // a's freed slot
}

TEST(TransferScheduleTest, DirtyBlocksWriteBackOnEviction) {
  Fixture f;
  // a is written by the program -> its eviction must emit a write-back.
  const ProgramProfile prof = f.profile_for({1, 2, 3}, {0, 50, 0, 0});
  const TransferSchedule sched = TransferSchedule::generate(
      f.program, prof, f.plan_all_data_to(1), f.layout);
  ASSERT_EQ(sched.commands().size(), 5u);
  EXPECT_EQ(sched.commands()[2].op, TransferCommand::Op::WriteBack);
  EXPECT_EQ(sched.commands()[2].block, 1u);
  EXPECT_EQ(sched.words_out(), 64u);
}

TEST(TransferScheduleTest, DirtyResidentsFlushAtExit) {
  Fixture f;
  const ProgramProfile prof = f.profile_for({1}, {0, 7, 0, 0});
  const TransferSchedule sched = TransferSchedule::generate(
      f.program, prof, f.plan_all_data_to(1), f.layout);
  ASSERT_EQ(sched.commands().size(), 2u);
  EXPECT_EQ(sched.commands()[1].op, TransferCommand::Op::WriteBack);
  EXPECT_EQ(sched.commands()[1].sequence_index, 1u);  // end-of-program
}

TEST(TransferScheduleTest, UnmappedBlocksNeverAppear) {
  Fixture f;
  std::vector<BlockMapping> m(f.program.block_count());
  for (std::size_t i = 0; i < m.size(); ++i)
    m[i] = BlockMapping{static_cast<BlockId>(i), kNoRegion,
                        MappingReason::NoSramRoom};
  const MappingPlan plan(f.layout, std::move(m));
  const ProgramProfile prof = f.profile_for({1, 2, 3, 1, 2, 3});
  const TransferSchedule sched =
      TransferSchedule::generate(f.program, prof, plan, f.layout);
  EXPECT_TRUE(sched.commands().empty());
  EXPECT_EQ(sched.words_in(), 0u);
}

TEST(TransferScheduleTest, SpansTrackResidency) {
  Fixture f;
  const ProgramProfile prof = f.profile_for({1, 2, 3, 1});
  const TransferSchedule sched = TransferSchedule::generate(
      f.program, prof, f.plan_all_data_to(1), f.layout);
  const std::vector<ResidencySpan> a_spans = sched.spans_of(1);
  ASSERT_EQ(a_spans.size(), 2u);  // mapped, evicted by c, remapped
  EXPECT_EQ(a_spans[0].map_index, 0u);
  ASSERT_TRUE(a_spans[0].unmap_index.has_value());
  EXPECT_EQ(*a_spans[0].unmap_index, 2u);
  EXPECT_FALSE(a_spans[1].unmap_index.has_value());  // resident at exit
}

TEST(TransferScheduleTest, CaseStudyEccRegionAlternatesArrays) {
  // Array1 and Array3 time-share the 2 KiB SEC-DED region: the schedule
  // must alternate them at the same base address, with modest totals
  // (coarse per-iteration phases, not per-access thrash).
  const Workload w = make_case_study(CaseStudyTargets{}.scaled_down(8));
  const ProgramProfile prof = profile_workload(w);
  const StructureEvaluator evaluator;
  const SystemResult r = evaluator.evaluate_ftspm(w, prof);
  const TransferSchedule sched = TransferSchedule::generate(
      w.program, prof, r.plan, evaluator.ftspm_layout());

  const auto a1 = sched.spans_of(CaseStudyBlocks::kArray1);
  const auto a3 = sched.spans_of(CaseStudyBlocks::kArray3);
  EXPECT_GT(a1.size(), 1u);
  EXPECT_GT(a3.size(), 1u);
  // Same region, same base: the region holds one array at a time.
  EXPECT_EQ(a1.front().region, a3.front().region);
  EXPECT_EQ(a1.front().base_word, a3.front().base_word);
  // Commands stay far below the reference count (no thrash).
  EXPECT_LT(sched.commands().size(), prof.reference_sequence.size() / 10);
}

TEST(TransferScheduleTest, RenderMentionsBlocksAndTruncates) {
  Fixture f;
  const ProgramProfile prof = f.profile_for({1, 2, 3, 1, 2, 3, 1, 2, 3});
  const TransferSchedule sched = TransferSchedule::generate(
      f.program, prof, f.plan_all_data_to(1), f.layout);
  const std::string out = sched.render(f.program, f.layout, 3);
  EXPECT_NE(out.find("map-in a"), std::string::npos);
  EXPECT_NE(out.find("more commands"), std::string::npos);
}

TEST(TransferScheduleTest, RejectsMismatchedInputs) {
  Fixture f;
  const ProgramProfile empty;
  EXPECT_THROW(TransferSchedule::generate(f.program, empty,
                                          f.plan_all_data_to(1), f.layout),
               InvalidArgument);
}

}  // namespace
}  // namespace ftspm
