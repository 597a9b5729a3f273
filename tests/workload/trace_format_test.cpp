// Guards on how traces are stored and exported. The exported text of
// every suite benchmark and of the case study is pinned by length and
// FNV-1a, so a change to the in-memory slot format that altered any
// event shows here. The fit test keeps the slot's field widths honest:
// the workloads must store nearly every event in one slot of its own.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "ftspm/workload/case_study.h"
#include "ftspm/workload/suite.h"
#include "ftspm/workload/trace_io.h"

namespace ftspm {
namespace {

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

struct ExportDigest {
  std::size_t bytes;
  std::uint64_t fnv1a;
};

void expect_export(const Workload& w, const ExportDigest& golden) {
  const std::string text = serialize_workload(w);
  EXPECT_EQ(text.size(), golden.bytes);
  EXPECT_EQ(fnv1a64(text), golden.fnv1a)
      << std::hex << "0x" << fnv1a64(text);
}

// Captured from the exporter as it stood with 8-byte slots.
TEST(TraceFormatTest, SuiteExportsAtScale16AreUnchanged) {
  const ExportDigest goldens[kMiBenchmarkCount] = {
      {212241, 0x74235E7AC8336AB9ULL},  // basicmath
      {81692, 0x513EF323BFAC577DULL},   // bitcount
      {373611, 0xCF99E6BB4B94328BULL},  // qsort
      {161070, 0x20186E032136D48EULL},  // susan
      {109150, 0xE57ED0C8F7761E27ULL},  // jpeg
      {489813, 0x0650CBC864FAA6B0ULL},  // dijkstra
      {80559, 0x71CBC1786E9BDE07ULL},   // stringsearch
      {75912, 0x95DB072C8B0FCC9DULL},   // sha
      {13717, 0xA63092AA0FE72677ULL},   // crc32
      {56959, 0x8DB77798B12D8006ULL},   // fft
      {18755, 0xEA8AC7C041285FDEULL},   // adpcm
      {167564, 0xB266589719D7EF68ULL},  // rijndael
  };
  ASSERT_EQ(all_benchmarks().size(), kMiBenchmarkCount);
  for (std::size_t i = 0; i < kMiBenchmarkCount; ++i) {
    const MiBenchmark bench = all_benchmarks()[i];
    SCOPED_TRACE(to_string(bench));
    expect_export(make_benchmark(bench, 16), goldens[i]);
  }
}

TEST(TraceFormatTest, CaseStudyExportIsUnchanged) {
  expect_export(make_case_study(), {9665083, 0x1C29B26882924161ULL});
}

/// Bytes per event a trace's events occupy: its stored bytes less the
/// unfilled tail of its last chunk, a fixed cost of at most one chunk
/// per trace rather than a cost per event.
double bytes_per_event(const Trace& trace) {
  const std::size_t unfilled =
      trace.chunk_count() * Trace::kChunkEvents - trace.size();
  return static_cast<double>(trace.stored_bytes() -
                             unfilled * sizeof(TraceSlot::Word)) /
         static_cast<double>(trace.size());
}

void expect_fits(const Workload& w) {
  ASSERT_FALSE(w.trace.empty());
  const double escaped = static_cast<double>(w.trace.escape_count()) /
                         static_cast<double>(w.trace.size());
  EXPECT_LE(escaped, 0.01) << w.trace.escape_count() << " escapes in "
                           << w.trace.size() << " events";
  EXPECT_LE(bytes_per_event(w.trace), 4.2);
}

TEST(TraceFormatTest, WorkloadsStoreNearlyEveryEventInOneSlot) {
  for (const std::uint64_t scale : {1u, 16u})
    for (const MiBenchmark bench : all_benchmarks()) {
      SCOPED_TRACE(std::string(to_string(bench)) + " at scale " +
                   std::to_string(scale));
      expect_fits(make_benchmark(bench, scale));
    }
  SCOPED_TRACE("case study");
  expect_fits(make_case_study());
}

}  // namespace
}  // namespace ftspm
