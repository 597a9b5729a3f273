// Seeded mutation test for the trace reader: exported traces are
// mutated (bit flips, digit swaps, truncations, splices, huge numbers)
// and fed back through parse_workload. Every mutant must either parse
// or throw ftspm::Error; every parsed one must either profile or throw
// ftspm::Error; and a profiled one's reference sequence must be the
// plain walk of the trace it parsed to. The reader bounds a program's
// declared bytes, so every parsed mutant is profiled. The seed is
// fixed, so a failure names a mutant that reproduces.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "ftspm/profile/profiler.h"
#include "ftspm/util/error.h"
#include "ftspm/util/rng.h"
#include "ftspm/workload/suite.h"
#include "ftspm/workload/trace_io.h"
#include "support/reference_walk.h"
#include "support/text_mutator.h"

namespace ftspm {
namespace {

struct Tally {
  int parsed = 0;
  int profiled = 0;
  int rejected = 0;
};

/// Runs `mutants` mutants of `text` through the reader and profiler.
Tally run_mutants(const std::string& text, const std::string& donor,
                  Rng& rng, int mutants) {
  Tally tally;
  for (int m = 0; m < mutants; ++m) {
    std::string mutant = text;
    const std::uint64_t edits = 1 + rng.next_below(3);
    for (std::uint64_t k = 0; k < edits; ++k)
      testing_support::mutate(mutant, donor, rng);
    SCOPED_TRACE("mutant " + std::to_string(m));
    std::optional<Workload> parsed;
    try {
      parsed.emplace(parse_workload(mutant));
    } catch (const Error&) {
      ++tally.rejected;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "parse threw a non-ftspm exception: " << e.what();
      continue;
    }
    ++tally.parsed;
    const Workload& w = *parsed;
    try {
      const ProgramProfile prof = profile_workload(w);
      ++tally.profiled;
      EXPECT_EQ(std::vector<BlockId>(prof.reference_sequence.begin(),
                                     prof.reference_sequence.end()),
                testing_support::plain_reference_walk(w.trace));
    } catch (const Error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "profile threw a non-ftspm exception: " << e.what();
    }
  }
  return tally;
}

TEST(TraceIoMutationTest, MutantsParseOrThrowErrorAndProfileExactly) {
  const std::vector<std::string> inputs = {
      serialize_workload(make_benchmark(MiBenchmark::Crc32, 64)),
      serialize_workload(make_benchmark(MiBenchmark::Adpcm, 64)),
      serialize_workload(testing_support::wide_id_workload()),
  };
  Rng rng(0xF75F'0029);
  Tally total;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE("input " + std::to_string(i));
    const Tally t =
        run_mutants(inputs[i], inputs[(i + 1) % inputs.size()], rng, 1000);
    total.parsed += t.parsed;
    total.profiled += t.profiled;
    total.rejected += t.rejected;
  }
  RecordProperty("parsed", total.parsed);
  RecordProperty("profiled", total.profiled);
  RecordProperty("rejected", total.rejected);
  // Both outcomes must occur, or the mutations test nothing.
  EXPECT_GT(total.profiled, 0);
  EXPECT_GT(total.rejected, 0);
}

}  // namespace
}  // namespace ftspm
