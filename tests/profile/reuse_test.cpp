#include "ftspm/profile/reuse.h"

#include <gtest/gtest.h>

#include <string>
#include <typeinfo>
#include <vector>

#include "ftspm/core/spm_config.h"
#include "ftspm/sim/simulator.h"
#include "ftspm/util/error.h"
#include "ftspm/workload/suite.h"
#include "support/run_traces.h"

namespace ftspm {
namespace {

Workload streaming_workload(std::uint32_t block_bytes,
                            std::uint32_t passes) {
  Program p("stream", {Block{"fn", BlockKind::Code, 512},
                       Block{"buf", BlockKind::Data, block_bytes}});
  Trace t;
  const std::uint32_t words = block_bytes / 8;
  for (std::uint32_t i = 0; i < passes; ++i)
    t.push_back(TraceEvent{1, AccessType::Read, 0, 0, words});
  return Workload{std::move(p), std::move(t)};
}

TEST(ReuseProfileTest, SequentialStreamReusesAtWorkingSetDistance) {
  // 1 KiB buffer = 32 lines; each pass after the first re-touches every
  // line at distance 31 -> bucket [16,32). Within a line, 3 of every 4
  // word accesses hit at distance 0.
  const Workload w = streaming_workload(1024, 10);
  const ReuseProfile prof = compute_reuse_profile(w, ReuseScope::Data);
  EXPECT_EQ(prof.total_accesses, 10u * 128u);
  // Cold misses: exactly the 32 first-touch lines.
  EXPECT_EQ(prof.histogram.back(), 32u);
  // A 64-line cache holds the whole working set: everything but the
  // cold misses hits.
  EXPECT_NEAR(prof.hit_rate_estimate(64),
              1.0 - 32.0 / prof.total_accesses, 1e-9);
  // A 16-line cache is too small for the 32-line loop: only the
  // intra-line word hits (distance 0) survive.
  EXPECT_NEAR(prof.hit_rate_estimate(16), 0.75, 0.03);
}

TEST(ReuseProfileTest, TinyWorkingSetAlwaysHits) {
  const Workload w = streaming_workload(64, 50);  // 2 lines
  const ReuseProfile prof = compute_reuse_profile(w, ReuseScope::Data);
  EXPECT_GT(prof.hit_rate_estimate(8), 0.99 - 4.0 / prof.total_accesses);
  EXPECT_LT(prof.mean_finite_distance(), 2.5);
}

TEST(ReuseProfileTest, ScopeSeparatesStreams) {
  Program p("mix", {Block{"fn", BlockKind::Code, 512},
                    Block{"buf", BlockKind::Data, 512}});
  Trace t{TraceEvent{0, AccessType::Fetch, 0, 0, 100},
                            TraceEvent{1, AccessType::Read, 0, 0, 40}};
  const Workload w{std::move(p), std::move(t)};
  EXPECT_EQ(compute_reuse_profile(w, ReuseScope::Instructions)
                .total_accesses,
            100u);
  EXPECT_EQ(compute_reuse_profile(w, ReuseScope::Data).total_accesses, 40u);
}

TEST(ReuseProfileTest, PredictsTheSimulatedCacheWithinABand) {
  // The real check: for suite workloads run entirely through the
  // caches, the fully-associative stack-distance estimate must track
  // the 4-way set-associative simulated hit rate.
  const TechnologyLibrary lib;
  const SpmLayout layout = make_pure_sram_layout(lib);
  const SimConfig cfg = make_sim_config(lib);
  const Simulator sim(layout, cfg);
  const std::uint64_t cache_lines = cfg.dcache.size_bytes /
                                    cfg.dcache.line_bytes;
  for (MiBenchmark bench :
       {MiBenchmark::Crc32, MiBenchmark::Sha, MiBenchmark::Dijkstra}) {
    const Workload w = make_benchmark(bench, 16);
    const std::vector<RegionId> unmapped(w.program.block_count(),
                                         kNoRegion);
    const RunResult run = sim.run(w, unmapped);
    const double simulated = 1.0 - run.dcache.miss_rate();
    const double predicted =
        compute_reuse_profile(w, ReuseScope::Data, cfg.dcache.line_bytes)
            .hit_rate_estimate(cache_lines);
    EXPECT_NEAR(predicted, simulated, 0.08) << to_string(bench);
  }
}

// Per-line run handling against the same trace split into one event per
// word, for several line sizes and a horizon small enough to clip.
TEST(ReuseProfileTest, RunLengthEventsMatchWordByWordEvents) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Workload runs = testing_support::random_run_workload(seed);
    const Workload words = testing_support::split_into_words(runs);
    for (const ReuseScope scope :
         {ReuseScope::Data, ReuseScope::Instructions}) {
      for (const std::uint32_t line : {8u, 16u, 64u}) {
        for (const std::size_t horizon : {4u, 4096u}) {
          const ReuseProfile a =
              compute_reuse_profile(runs, scope, line, horizon);
          const ReuseProfile b =
              compute_reuse_profile(words, scope, line, horizon);
          EXPECT_EQ(a.total_accesses, b.total_accesses);
          EXPECT_EQ(a.histogram, b.histogram)
              << "seed " << seed << " line " << line << " horizon "
              << horizon;
        }
      }
    }
  }
}

// The reuse walk validates each event as it goes: on every malformed
// trace it throws the error validate_trace() throws, message for
// message, in either scope.
TEST(ReuseProfileTest, ThrowsValidateTracesFirstErrorOnMalformedTraces) {
  const auto first_error = [](const auto& consume) -> std::string {
    try {
      consume();
    } catch (const Error& e) {
      EXPECT_EQ(typeid(e), typeid(Error));
      return e.what();
    }
    return "no error";
  };
  const std::vector<Workload> cases = testing_support::malformed_workloads();
  for (std::size_t k = 0; k < cases.size(); ++k) {
    SCOPED_TRACE("malformed case " + std::to_string(k));
    const Workload& w = cases[k];
    const std::string want =
        first_error([&] { validate_trace(w.program, w.trace); });
    EXPECT_NE(want, "no error");
    for (const ReuseScope scope : {ReuseScope::Data, ReuseScope::Instructions})
      EXPECT_EQ(first_error([&] { compute_reuse_profile(w, scope); }), want);
  }
}

TEST(ReuseProfileTest, RejectsBadParameters) {
  const Workload w = streaming_workload(64, 1);
  EXPECT_THROW(compute_reuse_profile(w, ReuseScope::Data, 24),
               InvalidArgument);
  EXPECT_THROW(compute_reuse_profile(w, ReuseScope::Data, 32, 1),
               InvalidArgument);
  ReuseProfile empty;
  EXPECT_THROW(empty.hit_rate_estimate(0), InvalidArgument);
  EXPECT_EQ(empty.hit_rate_estimate(16), 0.0);
}

}  // namespace
}  // namespace ftspm
