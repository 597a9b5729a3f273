// Peak memory of a pipeline pass's traces: generating and profiling the
// 12 suite benchmarks at scale 1 holds each trace once, in the chunks it
// was built in, beside its profile's reference sequence. A trace copied
// into a second buffer on its way out of the builder shows here as a
// rise of about twice the largest trace plus that sequence.
// Loading a saved trace holds the trace and a block of the file, never
// the whole text.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "ftspm/profile/profiler.h"
#include "ftspm/workload/suite.h"
#include "ftspm/workload/trace_io.h"

#if defined(__linux__)
#include <sys/wait.h>
#include <unistd.h>
#endif

// Sanitizers keep their own shadow and quarantine memory, which swamps
// what this test measures.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FTSPM_UNDER_SANITIZER 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FTSPM_UNDER_SANITIZER 1
#endif

namespace ftspm {
namespace {

/// The process's peak resident set size (VmHWM) in bytes; 0 where
/// /proc/self/status does not report it.
std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stoull(line.substr(6)) * 1024;  // reported in kB
  return 0;
}

TEST(TracePeakMemoryTest, SuitePassHoldsEachTraceOnce) {
#if !defined(__linux__) || defined(FTSPM_UNDER_SANITIZER)
  GTEST_SKIP() << "needs Linux's VmHWM and no sanitizer";
#else
  const std::uint64_t before = peak_rss_bytes();
  ASSERT_GT(before, 0u);
  // The largest trace, and the reference sequence profiling it filled:
  // one 4-byte block id per block switch, which the trace's own
  // shrinking does not shrink.
  std::uint64_t largest_trace_bytes = 0;
  std::uint64_t its_sequence_bytes = 0;
  for (const MiBenchmark bench : all_benchmarks()) {
    const Workload w = make_benchmark(bench, 1);
    const ProgramProfile profile = profile_workload(w);
    EXPECT_GT(profile.total_accesses, 0u);
    if (w.trace.stored_bytes() > largest_trace_bytes) {
      largest_trace_bytes = w.trace.stored_bytes();
      its_sequence_bytes =
          profile.reference_sequence.size() * sizeof(BlockId);
    }
  }
  const std::uint64_t rise = peak_rss_bytes() - before;
  const double ratio =
      static_cast<double>(rise - std::min(rise, its_sequence_bytes)) /
      static_cast<double>(largest_trace_bytes);
  RecordProperty("peak_rise_less_sequence_over_largest_trace",
                 std::to_string(ratio));
  EXPECT_LT(static_cast<double>(rise),
            1.4 * static_cast<double>(largest_trace_bytes) +
                static_cast<double>(its_sequence_bytes))
      << "VmHWM rose " << rise << " bytes; the largest trace is "
      << largest_trace_bytes << " bytes and its reference sequence "
      << its_sequence_bytes << " bytes";
#endif
}

TEST(TracePeakMemoryTest, LoadingASavedTraceStreamsItsText) {
#if !defined(__linux__) || defined(FTSPM_UNDER_SANITIZER)
  GTEST_SKIP() << "needs Linux's VmHWM and no sanitizer";
#else
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ftspm_peak_" + std::to_string(::getpid()) + ".trace"))
          .string();
  // A child process generates and saves the trace, so neither its
  // generation nor its serialisation counts towards this process's peak.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    int rc = 1;
    try {
      save_workload(make_benchmark(MiBenchmark::Dijkstra, 1), path);
      rc = 0;
    } catch (...) {
    }
    ::_exit(rc);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  const std::uint64_t file_bytes = std::filesystem::file_size(path);

  const std::uint64_t before = peak_rss_bytes();
  ASSERT_GT(before, 0u);
  const Workload loaded = load_workload(path);
  const std::uint64_t rise = peak_rss_bytes() - before;
  std::remove(path.c_str());
  ASSERT_FALSE(loaded.trace.empty());
  const std::uint64_t trace_bytes = loaded.trace.stored_bytes();
  RecordProperty("peak_rise_bytes", std::to_string(rise));
  RecordProperty("file_bytes", std::to_string(file_bytes));
  RecordProperty("trace_bytes", std::to_string(trace_bytes));
  // The reader keeps one 64 KiB block of the file; a quarter of the
  // file is slack for the heap's growth. A reader that held the whole
  // text even once would rise by the file plus the trace.
  EXPECT_LT(rise, trace_bytes + file_bytes / 4)
      << "VmHWM rose " << rise << " bytes loading a " << file_bytes
      << "-byte file into a " << trace_bytes << "-byte trace";
#endif
}

}  // namespace
}  // namespace ftspm
