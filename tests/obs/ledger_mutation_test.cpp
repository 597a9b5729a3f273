// Seeded mutation test for the run-ledger reader: a three-record
// ledger is mutated (bit flips, digit swaps, truncations, splices, huge
// numbers) and read back. Every mutant must scan without throwing,
// account for each non-empty line as a record or a warning, count to
// the same records through a fresh LedgerCursor, and resolve run
// references to a scanned record or to nothing. The seed is fixed, so
// a failure names a mutant that reproduces.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <string_view>

#include "ftspm/obs/ledger.h"
#include "ftspm/util/rng.h"
#include "support/text_mutator.h"

namespace ftspm::obs {
namespace {

std::string temp_path(const char* stem) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + stem + "." +
         std::to_string(::getpid());
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

LedgerRecord record(const std::string& id, std::uint64_t seed) {
  LedgerRecord r;
  r.id = id;
  r.command = "campaign";
  r.workload = "secded";
  r.seed = seed;
  r.jobs = 2;
  r.shards = 4;
  r.counters = {{"strikes", 20000}, {"sdc", seed % 97}, {"due", 3}};
  r.metrics = {{"vulnerability", 0.125}};
  r.wall_ms = 12.5;
  r.strikes_per_sec = 80000.0;
  return r;
}

std::string ledger_text(std::uint64_t first_seed) {
  std::string text;
  for (std::uint64_t i = 0; i < 3; ++i)
    text += record("run-" + std::to_string(i), first_seed + i).to_json() + "\n";
  return text;
}

/// Lines the scan must account for: every line that is not empty once
/// its '\n' and one trailing '\r' are gone.
std::size_t nonempty_lines(std::string_view text) {
  std::size_t count = 0;
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    std::string_view line = text.substr(0, eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) ++count;
  }
  return count;
}

TEST(LedgerMutationTest, MutantsScanCountAndResolveConsistently) {
  const std::string text = ledger_text(42);
  const std::string donor = ledger_text(7000);
  const std::string path = temp_path("ftspm_ledger_mutation");
  Rng rng(0x1ED6'E032);
  int whole = 0;
  int damaged = 0;
  for (int m = 0; m < 2000; ++m) {
    std::string mutant = text;
    const std::uint64_t edits = 1 + rng.next_below(3);
    for (std::uint64_t k = 0; k < edits; ++k)
      testing_support::mutate(mutant, donor, rng);
    SCOPED_TRACE("mutant " + std::to_string(m) + ": " + mutant);
    spit(path, mutant);

    LedgerScan scan;
    try {
      scan = scan_ledger(path);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "scan_ledger threw: " << e.what();
      continue;
    }
    EXPECT_EQ(scan.records.size() + scan.warnings.size(),
              nonempty_lines(mutant));
    LedgerCursor fresh;
    EXPECT_EQ(count_ledger_records(path, fresh), scan.records.size());
    for (const char* ref : {"run-0", "@1", "7"}) {
      try {
        const LedgerRecord* found = find_run(scan.records, ref);
        if (found != nullptr) {
          EXPECT_GE(found, scan.records.data()) << ref;
          EXPECT_LT(found, scan.records.data() + scan.records.size()) << ref;
        }
      } catch (const std::exception& e) {
        ADD_FAILURE() << "find_run(" << ref << ") threw: " << e.what();
      }
    }
    (scan.warnings.empty() && scan.records.size() == 3 ? whole : damaged)++;
  }
  std::remove(path.c_str());
  RecordProperty("whole", whole);
  RecordProperty("damaged", damaged);
  // Both outcomes must occur, or the mutations test nothing.
  EXPECT_GT(whole, 0);
  EXPECT_GT(damaged, 0);
}

}  // namespace
}  // namespace ftspm::obs
