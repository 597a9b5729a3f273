// End-to-end observability: a small case_study run handed a traced
// context must produce a valid Chrome trace-event document with the DMA,
// eviction, and phase-span lanes populated — and byte-identical output
// across repeated runs (the determinism contract).
#include <gtest/gtest.h>

#include <string>

#include "ftspm/core/systems.h"
#include "ftspm/obs/context.h"
#include "ftspm/util/json.h"
#include "ftspm/workload/case_study.h"

namespace ftspm {
namespace {

struct TraceRun {
  std::string trace_json;
  std::string metrics_json;
};

TraceRun run_traced_case_study() {
  obs::TraceEventSink sink;
  obs::Context ctx;
  ctx.trace = &sink;
  // Scale 8 keeps the run small but still forces capacity evictions.
  const Workload w = make_case_study(CaseStudyTargets{}.scaled_down(8));
  const ProgramProfile prof = profile_workload(w);
  const StructureEvaluator evaluator;
  (void)evaluator.evaluate_ftspm(w, prof, &ctx);
  return TraceRun{sink.str(), ctx.registry.to_json()};
}

TEST(TraceGoldenTest, CaseStudyTraceIsValidAndComplete) {
  const TraceRun run = run_traced_case_study();
  const JsonValue doc = parse_json(run.trace_json);
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_GT(events.array.size(), 0u);

  bool saw_dma = false, saw_evict = false, saw_phase = false,
       saw_metadata = false;
  for (const JsonValue& e : events.array) {
    const JsonValue& ph = e.at("ph");
    const JsonValue* name = e.find("name");
    if (ph.string == "M") saw_metadata = true;
    if (ph.string == "X" && name != nullptr &&
        (name->string.rfind("load ", 0) == 0 ||
         name->string.rfind("writeback ", 0) == 0)) {
      saw_dma = true;
      // DMA events carry region/words args.
      EXPECT_NE(e.at("args").find("region"), nullptr);
      EXPECT_NE(e.at("args").find("words"), nullptr);
    }
    if (ph.string == "i" && name != nullptr &&
        name->string.rfind("evict ", 0) == 0)
      saw_evict = true;
    if (ph.string == "B") saw_phase = true;
  }
  EXPECT_TRUE(saw_metadata);
  EXPECT_TRUE(saw_dma);
  EXPECT_TRUE(saw_evict);
  EXPECT_TRUE(saw_phase);
}

TEST(TraceGoldenTest, TraceAndMetricsAreByteIdenticalAcrossRuns) {
  const TraceRun a = run_traced_case_study();
  const TraceRun b = run_traced_case_study();
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

TEST(TraceGoldenTest, PhasesPopulateOnlyWhenEnabled) {
  const Workload w = make_case_study(CaseStudyTargets{}.scaled_down(32));
  const ProgramProfile prof = profile_workload(w);
  const StructureEvaluator evaluator;
  {
    const SystemResult r = evaluator.evaluate_ftspm(w, prof);
    EXPECT_TRUE(r.run.phases.empty());
  }
  {
    obs::Context ctx;
    const SystemResult r = evaluator.evaluate_ftspm(w, prof, &ctx);
    ASSERT_FALSE(r.run.phases.empty());
    // Phase attribution must account for every simulated cycle.
    std::uint64_t phase_cycles = 0;
    std::uint64_t accesses = 0;
    for (const PhaseStats& p : r.run.phases) {
      phase_cycles += p.total_cycles();
      accesses += p.accesses;
    }
    EXPECT_EQ(phase_cycles, r.run.total_cycles);
    EXPECT_GT(accesses, 0u);
  }
}

}  // namespace
}  // namespace ftspm
