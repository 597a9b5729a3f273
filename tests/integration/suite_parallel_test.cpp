// run_suite_parallel must be a drop-in for run_suite: same rows for
// any jobs value, with progress as the only (completion-ordered)
// observable difference.
#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "ftspm/obs/context.h"
#include "ftspm/report/suite_runner.h"

namespace ftspm {
namespace {

constexpr std::uint64_t kScale = 64;  // keep the 12x3 sweep quick

void expect_same_rows(const std::vector<SuiteRow>& a,
                      const std::vector<SuiteRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].benchmark, b[i].benchmark);
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].ftspm.run.total_cycles, b[i].ftspm.run.total_cycles);
    EXPECT_EQ(a[i].pure_sram.run.total_cycles,
              b[i].pure_sram.run.total_cycles);
    EXPECT_EQ(a[i].pure_stt.run.total_cycles, b[i].pure_stt.run.total_cycles);
    EXPECT_EQ(a[i].ftspm.avf.sdc_avf, b[i].ftspm.avf.sdc_avf);
    EXPECT_EQ(a[i].ftspm.avf.due_avf, b[i].ftspm.avf.due_avf);
    EXPECT_EQ(a[i].ftspm.run.spm_dynamic_energy_pj(),
              b[i].ftspm.run.spm_dynamic_energy_pj());
  }
}

TEST(SuiteParallelTest, RowsMatchSerialForAnyJobsValue) {
  const StructureEvaluator evaluator;
  const std::vector<SuiteRow> serial = run_suite(evaluator, kScale);
  for (std::uint32_t jobs : {2u, 4u}) {
    const std::vector<SuiteRow> parallel =
        run_suite_parallel(evaluator, kScale, jobs);
    expect_same_rows(serial, parallel);
  }
}

/// The suite's telemetry (metrics, trace, event log) at `jobs`.
std::string suite_telemetry(std::uint32_t jobs) {
  const StructureEvaluator evaluator;
  obs::TraceEventSink trace;
  obs::EventLog events;
  obs::Context obs;
  obs.trace = &trace;
  obs.events = &events;
  run_suite_parallel(evaluator, kScale, jobs, {}, &obs);
  return obs.registry.to_json() + "\n" + trace.str() + "\n" + events.str();
}

// Each worker books into a context of its own, folded in benchmark
// order after the join: every artefact is the serial run's.
TEST(SuiteParallelTest, TelemetryMatchesSerialForAnyJobsValue) {
  const std::string serial = suite_telemetry(1);
  EXPECT_NE(serial.find("sim.runs"), std::string::npos);
  for (std::uint32_t jobs : {2u, 4u})
    EXPECT_EQ(suite_telemetry(jobs), serial) << "jobs " << jobs;
}

TEST(SuiteParallelTest, JobsOneFallsThroughToSerial) {
  const StructureEvaluator evaluator;
  expect_same_rows(run_suite(evaluator, kScale),
                   run_suite_parallel(evaluator, kScale, 1));
}

TEST(SuiteParallelTest, ProgressReportsEveryBenchmarkOnce) {
  const StructureEvaluator evaluator;
  std::mutex mutex;
  std::set<std::string> names;
  std::size_t calls = 0;
  std::size_t max_done = 0;
  run_suite_parallel(evaluator, kScale, 4,
                     [&](std::size_t done, std::size_t total,
                         const std::string& name) {
                       const std::lock_guard<std::mutex> lock(mutex);
                       ++calls;
                       EXPECT_EQ(total, kMiBenchmarkCount);
                       EXPECT_GE(done, 1u);
                       EXPECT_LE(done, total);
                       if (done > max_done) max_done = done;
                       names.insert(name);
                     });
  EXPECT_EQ(calls, kMiBenchmarkCount);
  EXPECT_EQ(names.size(), kMiBenchmarkCount);
  EXPECT_EQ(max_done, kMiBenchmarkCount);
}

}  // namespace
}  // namespace ftspm
