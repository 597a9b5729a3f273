// Peak memory of a pipeline pass's traces: generating and profiling the
// 12 suite benchmarks at scale 1 holds each trace once, in the chunks it
// was built in. A trace copied into a second buffer on its way out of
// the builder shows here as a rise of about twice the largest trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>

#include "ftspm/profile/profiler.h"
#include "ftspm/workload/suite.h"

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
  std::uint64_t largest_trace_bytes = 0;
  for (const MiBenchmark bench : all_benchmarks()) {
    const Workload w = make_benchmark(bench, 1);
    const ProgramProfile profile = profile_workload(w);
    EXPECT_GT(profile.total_accesses, 0u);
    largest_trace_bytes =
        std::max<std::uint64_t>(largest_trace_bytes,
                                w.trace.size() * sizeof(TraceEvent));
  }
  const std::uint64_t rise = peak_rss_bytes() - before;
  const double ratio = static_cast<double>(rise) /
                       static_cast<double>(largest_trace_bytes);
  RecordProperty("peak_rise_over_largest_trace", std::to_string(ratio));
  EXPECT_LT(ratio, 1.6) << "VmHWM rose " << rise << " bytes; the largest "
                        << "trace is " << largest_trace_bytes << " bytes";
#endif
}

}  // namespace
}  // namespace ftspm
