// Seeded mutation test for the trace reader: exported traces are
// mutated (bit flips, digit swaps, truncations, splices, huge numbers)
// and fed back through parse_workload. Every mutant must either parse
// or throw ftspm::Error; every parsed one must either profile or throw
// ftspm::Error; and a profiled one's reference sequence must be the
// plain walk of the trace it parsed to. The seed is fixed, so a
// failure names a mutant that reproduces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "ftspm/profile/profiler.h"
#include "ftspm/util/error.h"
#include "ftspm/util/rng.h"
#include "ftspm/workload/suite.h"
#include "ftspm/workload/trace_io.h"
#include "support/reference_walk.h"

namespace ftspm {
namespace {

/// Profiling holds 24 bytes per data word, so a mutant that declares
/// gigabyte blocks would make this test allocate gigabytes; such a
/// mutant is parsed but not profiled.
constexpr std::uint64_t kMaxProfiledDataBytes = std::uint64_t{1} << 24;

/// Numbers that overflow each field's width, or sit at its edge.
const char* const kHugeNumbers[] = {
    "4294967295",           "4294967296",
    "65535",                "65536",
    "18446744073709551615", "18446744073709551616",
    "99999999999999999999999999", "-1",
    "0",                    "255",
};

std::size_t find_digit(const std::string& text, std::size_t from) {
  const std::size_t at = text.find_first_of("0123456789", from);
  return at != std::string::npos ? at
                                 : text.find_first_of("0123456789");
}

/// Applies one random mutation to `text`; `donor` lends splices.
void mutate(std::string& text, const std::string& donor, Rng& rng) {
  if (text.empty()) {
    text = donor.substr(0, rng.next_below(donor.size() + 1));
    return;
  }
  const std::size_t at = rng.next_below(text.size());
  switch (rng.next_below(5)) {
    case 0:  // bit flip
      text[at] = static_cast<char>(text[at] ^ (1 << rng.next_below(8)));
      break;
    case 1: {  // digit swap
      const std::size_t d = find_digit(text, at);
      if (d == std::string::npos) break;
      text[d] = static_cast<char>('0' + (text[d] - '0' + 1 +
                                         rng.next_below(9)) % 10);
      break;
    }
    case 2:  // truncation
      text.resize(at);
      break;
    case 3: {  // splice a stretch of the donor in
      const std::size_t from = rng.next_below(donor.size());
      const std::size_t len = rng.next_below(
          std::min<std::size_t>(donor.size() - from, 200) + 1);
      text.insert(at, donor, from, len);
      break;
    }
    default: {  // replace a number with a huge one
      const std::size_t d = find_digit(text, at);
      if (d == std::string::npos) break;
      const std::size_t end = text.find_first_not_of("0123456789", d);
      text.replace(d, (end == std::string::npos ? text.size() : end) - d,
                   kHugeNumbers[rng.next_below(std::size(kHugeNumbers))]);
      break;
    }
  }
}

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
    for (std::uint64_t k = 0; k < edits; ++k) mutate(mutant, donor, rng);
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
    if (w.program.total_data_bytes() > kMaxProfiledDataBytes) continue;
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
