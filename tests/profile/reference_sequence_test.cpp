#include "ftspm/profile/reference_sequence.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "ftspm/profile/profiler.h"
#include "ftspm/util/rng.h"
#include "ftspm/workload/case_study.h"
#include "ftspm/workload/suite.h"
#include "support/reference_walk.h"

namespace ftspm {
namespace {

static_assert(std::forward_iterator<ReferenceSequence::const_iterator>);

std::vector<BlockId> ids_of(const ReferenceSequence& seq) {
  return {seq.begin(), seq.end()};
}

TEST(ReferenceSequenceTest, EmptySequence) {
  const ReferenceSequence seq;
  EXPECT_TRUE(seq.empty());
  EXPECT_EQ(seq.size(), 0u);
  EXPECT_EQ(seq.stored_bytes(), 0u);
  EXPECT_TRUE(seq.begin() == seq.end());
  EXPECT_EQ(seq, ReferenceSequence{});
  EXPECT_EQ(seq, ReferenceSequence(std::vector<BlockId>{}));
  EXPECT_NE(seq, ReferenceSequence{0});
}

TEST(ReferenceSequenceTest, EqualityComparesIdsInOrder) {
  EXPECT_EQ((ReferenceSequence{1, 0, 2}), (ReferenceSequence{1, 0, 2}));
  EXPECT_NE((ReferenceSequence{1, 0, 2}), (ReferenceSequence{1, 2, 0}));
  EXPECT_NE((ReferenceSequence{1, 0}), (ReferenceSequence{1, 0, 2}));
  // Across the escape code: 254 is stored as itself, 255 escaped.
  EXPECT_NE(ReferenceSequence{254}, ReferenceSequence{255});
  EXPECT_EQ((ReferenceSequence{255, 300}), (ReferenceSequence{255, 300}));
  EXPECT_NE((ReferenceSequence{255, 300}), (ReferenceSequence{300, 255}));
  EXPECT_NE((ReferenceSequence{7, 255}), (ReferenceSequence{255, 7}));
  EXPECT_EQ((ReferenceSequence{3, 256, 4}),
            ReferenceSequence(std::vector<BlockId>{3, 256, 4}));
}

TEST(ReferenceSequenceTest, IteratesLikeAPlainVector) {
  // Random sequences of small ids with escapes mixed in, at the code
  // edges (254, 255) and far past them.
  Rng rng(2024);
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = rng.next_below(300);
    std::vector<BlockId> ids;
    std::size_t escapes = 0;
    for (std::size_t i = 0; i < n; ++i) {
      BlockId id = 0;
      switch (rng.next_below(6)) {
        case 0: id = 254; break;
        case 1: id = 255; break;
        case 2: id = static_cast<BlockId>(rng.next_u64()); break;
        default: id = static_cast<BlockId>(rng.next_below(16)); break;
      }
      escapes += id >= ReferenceSequence::kEscape;
      ids.push_back(id);
    }
    ReferenceSequence pushed;
    pushed.reserve(n);
    for (const BlockId id : ids) pushed.push_back(id);
    const ReferenceSequence built(ids);
    SCOPED_TRACE("round " + std::to_string(round));
    EXPECT_EQ(ids_of(pushed), ids);
    EXPECT_EQ(pushed, built);
    EXPECT_EQ(pushed.size(), ids.size());
    EXPECT_EQ(pushed.empty(), ids.empty());
    EXPECT_EQ(pushed.stored_bytes(), n + escapes * sizeof(BlockId));
    // Post-increment hands back the position it left.
    auto it = pushed.begin();
    for (const BlockId id : ids) EXPECT_EQ(*it++, id);
    EXPECT_TRUE(it == pushed.end());
  }
}

TEST(ReferenceSequenceTest, ProfilingEscapesIdsPastOneByte) {
  const Workload w = testing_support::wide_id_workload();
  const std::vector<BlockId> expected =
      testing_support::plain_reference_walk(w.trace);
  const ProgramProfile prof = profile_workload(w);
  EXPECT_EQ(ids_of(prof.reference_sequence), expected);
  EXPECT_EQ(prof.reference_sequence, ReferenceSequence(expected));
  std::size_t escaped = 0;
  for (const BlockId id : expected) escaped += id >= 255;
  ASSERT_GE(escaped, 2u);
  EXPECT_EQ(prof.reference_sequence.stored_bytes(),
            expected.size() + escaped * sizeof(BlockId));
}

TEST(ReferenceSequenceTest, WorkloadsStoreOneBytePerReference) {
  // No generated workload has a block id past 254, so each reference
  // costs one byte and nothing is escaped.
  const auto check = [](const std::string& name, const Workload& w) {
    SCOPED_TRACE(name);
    const ProgramProfile prof = profile_workload(w);
    ASSERT_FALSE(prof.reference_sequence.empty());
    EXPECT_EQ(prof.reference_sequence.stored_bytes(),
              prof.reference_sequence.size());
    EXPECT_EQ(ids_of(prof.reference_sequence),
              testing_support::plain_reference_walk(w.trace));
  };
  for (const std::uint64_t scale : {1u, 16u})
    for (const MiBenchmark bench : all_benchmarks())
      check(std::string(to_string(bench)) + " at scale " +
                std::to_string(scale),
            make_benchmark(bench, scale));
  check("case_study", make_case_study());
}

}  // namespace
}  // namespace ftspm
