#include "ftspm/obs/ledger.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ftspm/util/error.h"
#include "ftspm/util/json.h"

namespace ftspm::obs {
namespace {

std::string temp_path(const char* stem) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + stem + "." +
         std::to_string(::getpid());
}

LedgerRecord sample(const std::string& id) {
  LedgerRecord r;
  r.id = id;
  r.command = "campaign";
  r.workload = "secded";
  r.seed = 42;
  r.jobs = 2;
  r.shards = 4;
  r.counters = {{"strikes", 1000}, {"sdc", 7}};
  r.metrics = {{"vulnerability", 0.25}};
  r.wall_ms = 12.5;
  r.strikes_per_sec = 80000.0;
  return r;
}

TEST(LedgerTest, RoundTripsThroughJson) {
  const LedgerRecord a = sample("run-0");
  const LedgerRecord b = LedgerRecord::from_json(parse_json(a.to_json()));
  EXPECT_EQ(b.id, "run-0");
  EXPECT_EQ(b.command, "campaign");
  EXPECT_EQ(b.workload, "secded");
  EXPECT_EQ(b.seed, 42u);
  EXPECT_EQ(b.jobs, 2u);
  EXPECT_EQ(b.shards, 4u);
  ASSERT_EQ(b.counters.size(), 2u);
  ASSERT_EQ(b.metrics.size(), 1u);
  EXPECT_DOUBLE_EQ(b.wall_ms, 12.5);
  EXPECT_FALSE(b.library_version.empty());
}

TEST(LedgerTest, JsonSortsCountersByKey) {
  LedgerRecord r = sample("run-0");
  r.counters = {{"zeta", 2}, {"alpha", 1}};
  const std::string json = r.to_json();
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));
}

TEST(LedgerTest, AppendAndReadBack) {
  const std::string path = temp_path("ftspm_ledger_test");
  std::remove(path.c_str());
  EXPECT_TRUE(read_ledger(path).empty());  // missing file = empty ledger
  append_ledger(sample("run-0"), path);
  append_ledger(sample("run-1"), path);
  const std::vector<LedgerRecord> runs = read_ledger(path);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].id, "run-0");
  EXPECT_EQ(runs[1].id, "run-1");
  std::remove(path.c_str());
}

TEST(LedgerTest, ConcurrentLargeAppendsNeverTear) {
  // Several threads append records of more than 64 KiB at once. Each
  // record must land as one whole line: scan_ledger then counts every
  // record, and finds no torn line to skip.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  const std::string path = temp_path("ftspm_ledger_concurrent");
  std::remove(path.c_str());
  const std::string payload(70'000, 'x');
  std::atomic<int> failed_appends{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        LedgerRecord r = sample("t" + std::to_string(t) + "-" +
                                std::to_string(i));
        r.command = payload;
        try {
          append_ledger(r, path);
        } catch (const Error&) {
          ++failed_appends;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failed_appends.load(), 0);

  const LedgerScan scan = scan_ledger(path);
  EXPECT_TRUE(scan.warnings.empty())
      << scan.warnings.size() << " torn lines, first: " << scan.warnings[0];
  ASSERT_EQ(scan.records.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  std::set<std::string> ids;
  for (const LedgerRecord& r : scan.records) {
    EXPECT_EQ(r.command, payload);
    ids.insert(r.id);
  }
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kThreads * kPerThread));
  std::remove(path.c_str());
}

TEST(LedgerTest, AppendToAnUnopenablePathThrows) {
  EXPECT_THROW(append_ledger(sample("run-0"), "/nonexistent-dir/ledger.jsonl"),
               Error);
}

TEST(LedgerTest, NewLedgerTakesItsModeFromTheUmask) {
  // Created with 0666 under the umask, as an ofstream would: a
  // group-writable umask leaves the ledger group-writable.
  const std::string path = temp_path("ftspm_ledger_mode");
  std::remove(path.c_str());
  const mode_t old_mask = ::umask(002);
  append_ledger(sample("run-0"), path);
  ::umask(old_mask);
  struct stat st {};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  EXPECT_EQ(st.st_mode & 0777, 0664u);
  std::remove(path.c_str());
}

TEST(LedgerTest, FindRunMatchesIdThenIndex) {
  std::vector<LedgerRecord> runs;
  runs.push_back(sample("baseline"));
  runs.push_back(sample("candidate"));
  runs.push_back(sample("baseline"));  // re-used id: last one wins
  EXPECT_EQ(find_run(runs, "candidate"), &runs[1]);
  EXPECT_EQ(find_run(runs, "baseline"), &runs[2]);
  EXPECT_EQ(find_run(runs, "0"), &runs[0]);
  EXPECT_EQ(find_run(runs, "2"), &runs[2]);
  EXPECT_EQ(find_run(runs, "3"), nullptr);
  EXPECT_EQ(find_run(runs, "missing"), nullptr);
}

TEST(LedgerTest, FindRunParsesAtIndexRefsStrictly) {
  std::vector<LedgerRecord> runs;
  runs.push_back(sample("baseline"));
  runs.push_back(sample("candidate"));
  EXPECT_EQ(find_run(runs, "@0"), &runs[0]);
  EXPECT_EQ(find_run(runs, "@1"), &runs[1]);
  EXPECT_EQ(find_run(runs, "@2"), nullptr);  // well-formed but absent
  // A malformed @ ref can never be an id, so it is a usage error — it
  // used to escape std::stoull as an uncaught std::invalid_argument
  // (or std::out_of_range on long digit strings) and crash the tool.
  for (const char* bad : {"@foo", "@", "@1x", "@-1", "@+1", "@ 1", "@0x10",
                          "@99999999999999999999999999"}) {
    EXPECT_THROW(find_run(runs, bad), InvalidArgument) << "'" << bad << "'";
    try {
      find_run(runs, bad);
    } catch (const InvalidArgument& e) {
      // The message names the offending text.
      EXPECT_NE(std::string(e.what()).find(bad), std::string::npos)
          << e.what();
    }
  }
  // Bare digits stay forgiving: they double as ids, so garbage and
  // overflow are simply "no such run", never a throw.
  EXPECT_EQ(find_run(runs, "99999999999999999999999999"), nullptr);
  EXPECT_EQ(find_run(runs, "1x"), nullptr);
}

TEST(LedgerScanTest, MissingFileIsAnEmptyScan) {
  const LedgerScan scan = scan_ledger(temp_path("ftspm_scan_missing"));
  EXPECT_TRUE(scan.records.empty());
  EXPECT_TRUE(scan.warnings.empty());
}

TEST(LedgerScanTest, SkipsCorruptLinesWithTheirLineNumbers) {
  const std::string path = temp_path("ftspm_scan_corrupt");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::string good0 = sample("run-0").to_json();
    const std::string good1 = sample("run-1").to_json();
    // Line 2 is a truncated append, line 4 is valid JSON with the
    // wrong shape; lines 1, 3 and 6 must still come back (5 is blank).
    const std::string body = good0 + "\n" +
                             good0.substr(0, good0.size() / 2) + "\n" +
                             good1 + "\n" +
                             "{\"schema\":1}\n"
                             "\n" +
                             good0 + "\n";
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
  }
  // The strict reader refuses the whole file ...
  EXPECT_THROW(read_ledger(path), Error);
  // ... while the scan keeps every parseable record.
  const LedgerScan scan = scan_ledger(path);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0].id, "run-0");
  EXPECT_EQ(scan.records[1].id, "run-1");
  EXPECT_EQ(scan.records[2].id, "run-0");
  ASSERT_EQ(scan.warnings.size(), 2u);
  EXPECT_NE(scan.warnings[0].find("line 2"), std::string::npos)
      << scan.warnings[0];
  EXPECT_NE(scan.warnings[1].find("line 4"), std::string::npos)
      << scan.warnings[1];
  std::remove(path.c_str());
}

TEST(LedgerScanTest, ToleratesCrlfAndBlankLines) {
  const std::string path = temp_path("ftspm_scan_crlf");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::string body =
        sample("run-0").to_json() + "\r\n\r\n" + sample("run-1").to_json();
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
  }
  const LedgerScan scan = scan_ledger(path);
  EXPECT_TRUE(scan.warnings.empty());
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[1].id, "run-1");
  std::remove(path.c_str());
}

/// sample(id)'s JSON line with the first `"key":<value>` member
/// rewritten to `"key":replacement`.
std::string with_member(const std::string& id, const std::string& key,
                        const std::string& replacement) {
  std::string line = sample(id).to_json();
  const std::string needle = "\"" + key + "\":";
  const auto start = line.find(needle);
  EXPECT_NE(start, std::string::npos) << key;
  const auto value = start + needle.size();
  const auto end = line.find_first_of(",}", value);
  line.replace(value, end - value, replacement);
  return line;
}

TEST(LedgerTest, RejectsIntegersThatDoNotFit) {
  // Each of these once read back as a truncated or wrapped value.
  const struct {
    const char* key;
    const char* value;
  } bad[] = {{"seed", "1e30"},
             {"seed", "2.5"},
             {"seed", "18446744073709551615"},  // rounds to 2^64
             {"scale", "-1"},
             {"jobs", "4294967297"},
             {"shards", "4294967296"},
             {"sdc", "1.5"},
             {"strikes", "1e30"}};
  for (const auto& b : bad) {
    EXPECT_THROW(
        LedgerRecord::from_json(parse_json(with_member("r", b.key, b.value))),
        Error)
        << b.key << " = " << b.value;
  }
  const LedgerRecord top = LedgerRecord::from_json(
      parse_json(with_member("r", "jobs", "4294967295")));
  EXPECT_EQ(top.jobs, 4294967295u);
}

TEST(LedgerScanTest, CountsAnOutOfRangeLineAsInvalid) {
  const std::string path = temp_path("ftspm_scan_range");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::string body = sample("run-0").to_json() + "\n" +
                             with_member("run-x", "seed", "1e30") + "\n" +
                             sample("run-1").to_json() + "\n" +
                             with_member("run-y", "jobs", "4294967297") +
                             "\n" + sample("run-2").to_json() + "\n";
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
  }
  const LedgerScan scan = scan_ledger(path);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0].id, "run-0");
  EXPECT_EQ(scan.records[1].id, "run-1");
  EXPECT_EQ(scan.records[2].id, "run-2");
  ASSERT_EQ(scan.warnings.size(), 2u);
  EXPECT_NE(scan.warnings[0].find("line 2"), std::string::npos)
      << scan.warnings[0];
  EXPECT_NE(scan.warnings[1].find("line 4"), std::string::npos)
      << scan.warnings[1];
  std::remove(path.c_str());
}

TEST(LedgerTest, RejectsUnknownSchema) {
  EXPECT_THROW(
      LedgerRecord::from_json(parse_json(
          "{\"schema\":99,\"id\":\"x\",\"command\":\"campaign\","
          "\"workload\":\"w\",\"scale\":1,\"seed\":0,\"jobs\":1,"
          "\"shards\":1,\"library_version\":\"1.0\",\"counters\":{},"
          "\"metrics\":{}}")),
      Error);
}

}  // namespace
}  // namespace ftspm::obs
