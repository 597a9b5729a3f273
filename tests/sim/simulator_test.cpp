#include "ftspm/sim/simulator.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>

#include "ftspm/core/mapping_determiner.h"
#include "ftspm/core/systems.h"
#include "ftspm/mem/technology_library.h"
#include "ftspm/obs/context.h"
#include "ftspm/profile/profiler.h"
#include "ftspm/util/error.h"
#include "ftspm/workload/suite.h"
#include "support/run_traces.h"

namespace ftspm {
namespace {

const TechnologyLibrary& lib() {
  static const TechnologyLibrary kLib;
  return kLib;
}

SpmLayout demo_layout() {
  return SpmLayout("demo",
                   {SpmRegionSpec{"I", SpmSpace::Instruction, 1024,
                                  lib().stt_ram()},
                    SpmRegionSpec{"DP", SpmSpace::Data, 64,
                                  lib().parity_sram()},
                    SpmRegionSpec{"DS", SpmSpace::Data, 2048,
                                  lib().secded_sram()},
                    SpmRegionSpec{"DT", SpmSpace::Data, 256,
                                  lib().stt_ram()}});
}

Program demo_program() {
  return Program("demo", {Block{"fn", BlockKind::Code, 512},   // 64 words
                          Block{"a", BlockKind::Data, 64},     // 8 words
                          Block{"b", BlockKind::Data, 64},
                          Block{"c", BlockKind::Data, 64}});
}

SimConfig demo_config() {
  SimConfig cfg;
  cfg.clock_mhz = 200.0;
  return cfg;
}

TEST(SimulatorTest, SpmLatencyAndEnergyAccounting) {
  const SpmLayout layout = demo_layout();
  const Program program = demo_program();
  const SimConfig cfg = demo_config();
  const Simulator sim(layout, cfg);

  Workload w{program,
             {TraceEvent{0, AccessType::Fetch, 0, 0, 10},
              TraceEvent{1, AccessType::Read, 0, 0, 4},
              TraceEvent{2, AccessType::Write, 2, 0, 3}}};
  const std::vector<RegionId> map{0, 1, 2, kNoRegion};
  const RunResult res = sim.run(w, map);

  const TechnologyParams& stt = layout.region(0).tech;
  const TechnologyParams& par = layout.region(1).tech;
  const TechnologyParams& sec = layout.region(2).tech;

  EXPECT_EQ(res.compute_cycles, 6u);  // gap 2 x repeat 3
  EXPECT_EQ(res.spm_cycles, 10u * stt.read_latency_cycles +
                                4u * par.read_latency_cycles +
                                3u * sec.write_latency_cycles);
  EXPECT_EQ(res.regions[0].reads, 10u);
  EXPECT_EQ(res.regions[1].reads, 4u);
  EXPECT_EQ(res.regions[2].writes, 3u);
  EXPECT_DOUBLE_EQ(res.regions[0].read_energy_pj,
                   10.0 * stt.read_energy_pj);
  EXPECT_DOUBLE_EQ(res.regions[1].read_energy_pj, 4.0 * par.read_energy_pj);
  EXPECT_DOUBLE_EQ(res.regions[2].write_energy_pj,
                   3.0 * sec.write_energy_pj);
  // Three DMA loads (fn, a, b) plus the final dirty flush of b.
  EXPECT_EQ(res.regions[0].dma_in_words, 64u);
  EXPECT_EQ(res.regions[1].dma_in_words, 8u);
  EXPECT_EQ(res.regions[2].dma_in_words, 8u);
  EXPECT_EQ(res.regions[2].dma_out_words, 8u);
  EXPECT_EQ(res.regions[1].dma_out_words, 0u);  // a stayed clean
  EXPECT_GT(res.dma_cycles, 0u);
  EXPECT_EQ(res.total_cycles, res.compute_cycles + res.spm_cycles +
                                  res.cache_cycles +
                                  res.dram_penalty_cycles + res.dma_cycles);
}

TEST(SimulatorTest, StaticEnergyScalesWithTimeAndPower) {
  const SpmLayout layout = demo_layout();
  const Simulator sim(layout, demo_config());
  Workload w{demo_program(), {TraceEvent{0, AccessType::Fetch, 0, 0, 100}}};
  const std::vector<RegionId> map{0, kNoRegion, kNoRegion, kNoRegion};
  const RunResult res = sim.run(w, map);
  const double expected = layout.static_power_mw() *
                          (static_cast<double>(res.total_cycles) / 200.0) *
                          1000.0;
  EXPECT_NEAR(res.spm_static_energy_pj, expected, expected * 1e-9);
}

TEST(SimulatorTest, RegionTimeSharingEvictsLru) {
  const SpmLayout layout = demo_layout();
  const Simulator sim(layout, demo_config());
  // a and c both mapped to the 8-word parity region: strict time-share.
  Workload w{demo_program(),
             {TraceEvent{1, AccessType::Write, 0, 0, 2},   // load a, dirty
              TraceEvent{3, AccessType::Read, 0, 0, 2},    // load c, evict a
              TraceEvent{1, AccessType::Read, 0, 0, 2}}};  // reload a
  const std::vector<RegionId> map{kNoRegion, 1, kNoRegion, 1};
  const RunResult res = sim.run(w, map);
  EXPECT_EQ(res.regions[1].capacity_evictions, 2u);
  EXPECT_EQ(res.regions[1].dma_in_words, 24u);  // a, c, a again
  // a was dirty when evicted: one write-back. On the final flush a is
  // resident but clean (reloaded, only read), so no second write-back.
  EXPECT_EQ(res.regions[1].dma_out_words, 8u);
}

TEST(SimulatorTest, WearTracksSttWordWritesOnly) {
  const SpmLayout layout = demo_layout();
  const Simulator sim(layout, demo_config());
  // 20 writes wrapping an 8-word block: hottest word gets 3.
  Workload w{demo_program(),
             {TraceEvent{1, AccessType::Write, 0, 0, 20},
              TraceEvent{2, AccessType::Write, 0, 0, 20}}};
  // a in STT (wear-limited), b in SEC-DED SRAM (unlimited endurance).
  const std::vector<RegionId> map{kNoRegion, 3, 2, kNoRegion};
  const RunResult res = sim.run(w, map);
  EXPECT_EQ(res.block_max_word_writes[1], 3u);
  EXPECT_EQ(res.block_max_word_writes[2], 0u);  // SRAM: not tracked
  EXPECT_EQ(res.regions[3].max_word_writes, 3u);
  EXPECT_EQ(res.regions[2].max_word_writes, 0u);
}

// Wear of a 2^32 - 1 write run on a 3-word STT block is one write per
// full lap on every word, plus the partial lap's words: no word-by-word
// walk, and 64-bit word indices (see WordRunTest).
TEST(SimulatorTest, HugeWriteRunWearIsFullLapsPlusTheRest) {
  const SpmLayout layout = demo_layout();
  const Simulator sim(layout, demo_config());
  const Program program("demo", {Block{"fn", BlockKind::Code, 512},
                                 Block{"three", BlockKind::Data, 24}});
  const std::uint64_t repeat = 4294967295u;
  Workload w{program, {TraceEvent{1, AccessType::Write, 0, 2, 4294967295u}}};
  const RunResult res = sim.run(w, std::vector<RegionId>{kNoRegion, 3});
  EXPECT_EQ(res.regions[3].writes, repeat);
  EXPECT_EQ(res.block_max_word_writes[1], repeat / 3);
  EXPECT_EQ(res.regions[3].max_word_writes, repeat / 3);
}

// Run-length events against the same trace split into one event per
// word, through a small cache that evicts and writes back, with some
// blocks in SPM regions (one wear-tracked). Every counter must match;
// SPM energies are priced once per event (repeat x energy), so they
// match up to rounding.
TEST(SimulatorTest, RunLengthEventsMatchWordByWordEvents) {
  const SpmLayout layout(
      "runs", {SpmRegionSpec{"I", SpmSpace::Instruction, 1024,
                             lib().stt_ram()},
               SpmRegionSpec{"DT", SpmSpace::Data, 64, lib().stt_ram()},
               SpmRegionSpec{"DS", SpmSpace::Data, 64,
                             lib().secded_sram()}});
  SimConfig cfg = demo_config();
  cfg.icache = CacheConfig{256, 32, 2, 1};
  cfg.dcache = CacheConfig{256, 16, 2, 1};
  const Simulator sim(layout, cfg);
  // f -> I-SPM, g cached; three and eight time-share DT, five in DS,
  // one / big / stack cached.
  const std::vector<RegionId> map{0, kNoRegion, kNoRegion, 1, 2, 1,
                                  kNoRegion, kNoRegion};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Workload runs = testing_support::random_run_workload(seed);
    const RunResult a = sim.run(runs, map);
    const RunResult b = sim.run(testing_support::split_into_words(runs), map);
    SCOPED_TRACE(seed);
    EXPECT_EQ(a.total_cycles, b.total_cycles);
    EXPECT_EQ(a.compute_cycles, b.compute_cycles);
    EXPECT_EQ(a.spm_cycles, b.spm_cycles);
    EXPECT_EQ(a.cache_cycles, b.cache_cycles);
    EXPECT_EQ(a.dram_penalty_cycles, b.dram_penalty_cycles);
    EXPECT_EQ(a.dma_cycles, b.dma_cycles);
    for (const auto& [x, y] : {std::pair{a.icache, b.icache},
                               std::pair{a.dcache, b.dcache}}) {
      EXPECT_EQ(x.reads, y.reads);
      EXPECT_EQ(x.writes, y.writes);
      EXPECT_EQ(x.read_misses, y.read_misses);
      EXPECT_EQ(x.write_misses, y.write_misses);
      EXPECT_EQ(x.writebacks, y.writebacks);
    }
    EXPECT_GT(a.dcache.writebacks, 0u);
    ASSERT_EQ(a.regions.size(), b.regions.size());
    for (std::size_t r = 0; r < a.regions.size(); ++r) {
      EXPECT_EQ(a.regions[r].reads, b.regions[r].reads);
      EXPECT_EQ(a.regions[r].writes, b.regions[r].writes);
      EXPECT_EQ(a.regions[r].dma_in_words, b.regions[r].dma_in_words);
      EXPECT_EQ(a.regions[r].dma_out_words, b.regions[r].dma_out_words);
      EXPECT_EQ(a.regions[r].capacity_evictions,
                b.regions[r].capacity_evictions);
      EXPECT_EQ(a.regions[r].max_word_writes, b.regions[r].max_word_writes);
      EXPECT_NEAR(a.regions[r].energy_pj(), b.regions[r].energy_pj(),
                  1e-9 * std::abs(b.regions[r].energy_pj()));
    }
    EXPECT_GT(a.regions[1].max_word_writes, 0u);
    EXPECT_EQ(a.block_max_word_writes, b.block_max_word_writes);
    EXPECT_EQ(a.block_spm_accesses, b.block_spm_accesses);
    EXPECT_EQ(a.block_cache_accesses, b.block_cache_accesses);
    // Cache and DRAM energies are added per word and per miss on both
    // sides, in the same order.
    EXPECT_EQ(a.cache_energy_pj, b.cache_energy_pj);
    EXPECT_EQ(a.dram_energy_pj, b.dram_energy_pj);
  }
}

// Every RunResult field but the observability-only `phases`, doubles
// compared by bit pattern.
void expect_same_run_bits(const RunResult& a, const RunResult& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(a.layout_name, b.layout_name);
  EXPECT_EQ(bits(a.clock_mhz), bits(b.clock_mhz));
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.compute_cycles, b.compute_cycles);
  EXPECT_EQ(a.spm_cycles, b.spm_cycles);
  EXPECT_EQ(a.cache_cycles, b.cache_cycles);
  EXPECT_EQ(a.dram_penalty_cycles, b.dram_penalty_cycles);
  EXPECT_EQ(a.dma_cycles, b.dma_cycles);
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (std::size_t r = 0; r < a.regions.size(); ++r) {
    SCOPED_TRACE("region " + std::to_string(r));
    const RegionRunStats& x = a.regions[r];
    const RegionRunStats& y = b.regions[r];
    EXPECT_EQ(x.reads, y.reads);
    EXPECT_EQ(x.writes, y.writes);
    EXPECT_EQ(bits(x.read_energy_pj), bits(y.read_energy_pj));
    EXPECT_EQ(bits(x.write_energy_pj), bits(y.write_energy_pj));
    EXPECT_EQ(x.dma_in_words, y.dma_in_words);
    EXPECT_EQ(x.dma_out_words, y.dma_out_words);
    EXPECT_EQ(x.capacity_evictions, y.capacity_evictions);
    EXPECT_EQ(x.max_word_writes, y.max_word_writes);
  }
  for (const auto& [x, y] : {std::pair{a.icache, b.icache},
                             std::pair{a.dcache, b.dcache}}) {
    EXPECT_EQ(x.reads, y.reads);
    EXPECT_EQ(x.writes, y.writes);
    EXPECT_EQ(x.read_misses, y.read_misses);
    EXPECT_EQ(x.write_misses, y.write_misses);
    EXPECT_EQ(x.writebacks, y.writebacks);
  }
  EXPECT_EQ(bits(a.cache_energy_pj), bits(b.cache_energy_pj));
  EXPECT_EQ(bits(a.dram_energy_pj), bits(b.dram_energy_pj));
  EXPECT_EQ(bits(a.dma_energy_pj), bits(b.dma_energy_pj));
  EXPECT_EQ(bits(a.dma_dram_side_energy_pj), bits(b.dma_dram_side_energy_pj));
  EXPECT_EQ(bits(a.spm_static_energy_pj), bits(b.spm_static_energy_pj));
  EXPECT_EQ(a.block_max_word_writes, b.block_max_word_writes);
  EXPECT_EQ(a.block_spm_accesses, b.block_spm_accesses);
  EXPECT_EQ(a.block_cache_accesses, b.block_cache_accesses);
}

// `sim.run(w, map)` with no context, then with a context holding a trace
// sink: one kernel serves both, so only `phases` may differ.
void expect_observability_changes_nothing(const Simulator& sim,
                                          const Workload& w,
                                          std::span<const RegionId> map) {
  const RunResult off = sim.run(w, map);
  EXPECT_TRUE(off.phases.empty());
  obs::TraceEventSink sink;
  obs::Context ctx;
  ctx.trace = &sink;
  const RunResult on = sim.run(w, map, &ctx);
  EXPECT_FALSE(on.phases.empty());
  expect_same_run_bits(off, on);
}

TEST(SimulatorTest, ObservabilityChangesNoResultBit) {
  // The RunLengthEventsMatchWordByWordEvents set-up: small caches that
  // evict and write back, time-shared and wear-tracked regions.
  const SpmLayout layout(
      "runs", {SpmRegionSpec{"I", SpmSpace::Instruction, 1024,
                             lib().stt_ram()},
               SpmRegionSpec{"DT", SpmSpace::Data, 64, lib().stt_ram()},
               SpmRegionSpec{"DS", SpmSpace::Data, 64,
                             lib().secded_sram()}});
  SimConfig cfg = demo_config();
  cfg.icache = CacheConfig{256, 32, 2, 1};
  cfg.dcache = CacheConfig{256, 16, 2, 1};
  const Simulator sim(layout, cfg);
  const std::vector<RegionId> map{0, kNoRegion, kNoRegion, 1, 2, 1,
                                  kNoRegion, kNoRegion};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    expect_observability_changes_nothing(
        sim, testing_support::random_run_workload(seed), map);
  }

  // A suite benchmark under its FTSPM mapping: cache traffic, DMA,
  // evictions and STT wear at the evaluation's own sizes.
  const Workload w = make_benchmark(MiBenchmark::Fft, 4);
  const StructureEvaluator ev;
  const MappingDeterminer mda(ev.ftspm_layout(), ev.sim_config());
  const MappingPlan plan = mda.determine(w.program, profile_workload(w));
  SCOPED_TRACE("fft");
  expect_observability_changes_nothing(
      Simulator(ev.ftspm_layout(), ev.sim_config()), w,
      plan.block_to_region());
}

// The message clause of an ftspm error: what() after the check site.
std::string check_message(const Error& e) {
  const std::string what = e.what();
  const std::size_t at = what.find(" — ");
  return at == std::string::npos ? what : what.substr(at);
}

// A memory event naming a block the program does not have throws the
// error Program::block gives for it: InvalidArgument, "block id out of
// range".
TEST(SimulatorTest, RejectsOutOfRangeBlockIds) {
  const SpmLayout layout = demo_layout();
  const Simulator sim(layout, demo_config());
  const std::vector<RegionId> map{0, 1, kNoRegion, kNoRegion};
  for (const AccessType type :
       {AccessType::Fetch, AccessType::Read, AccessType::Write}) {
    const Workload w{demo_program(),
                     {TraceEvent{1, AccessType::Read, 0, 0, 4},
                      TraceEvent{4, type, 0, 0, 1}}};
    try {
      sim.run(w, map);
      ADD_FAILURE() << "no throw for " << to_string(type);
    } catch (const InvalidArgument& e) {
      EXPECT_EQ(check_message(e), " — block id out of range");
    }
  }
}

TEST(SimulatorTest, UnmappedBlocksGoThroughTheCache) {
  const SpmLayout layout = demo_layout();
  const Simulator sim(layout, demo_config());
  Workload w{demo_program(),
             {TraceEvent{0, AccessType::Fetch, 0, 0, 10},
              TraceEvent{1, AccessType::Read, 0, 0, 8}}};
  const std::vector<RegionId> map{kNoRegion, kNoRegion, kNoRegion,
                                  kNoRegion};
  const RunResult res = sim.run(w, map);
  EXPECT_EQ(res.icache.reads, 10u);
  EXPECT_EQ(res.dcache.reads, 8u);
  // 10 sequential word fetches span 3 cache lines: 3 cold misses.
  EXPECT_EQ(res.icache.read_misses, 3u);
  // 8 word reads = 64 bytes = 2 lines.
  EXPECT_EQ(res.dcache.read_misses, 2u);
  EXPECT_EQ(res.spm_accesses(), 0u);
  EXPECT_EQ(res.cache_cycles, 18u);
  EXPECT_EQ(res.dram_penalty_cycles,
            5u * SimConfig{}.dram.line_latency_cycles);
}

TEST(SimulatorTest, MarkersCostNothing) {
  const SpmLayout layout = demo_layout();
  const Simulator sim(layout, demo_config());
  Workload w{demo_program(),
             {TraceEvent{0, AccessType::CallEnter, 0, 64, 1},
              TraceEvent{0, AccessType::CallExit, 0, 0, 1}}};
  const std::vector<RegionId> map{0, kNoRegion, kNoRegion, kNoRegion};
  const RunResult res = sim.run(w, map);
  EXPECT_EQ(res.total_cycles, 0u);
  EXPECT_EQ(res.total_dynamic_energy_pj(), 0.0);
}

TEST(SimulatorTest, EnergyRollupsAreConsistent) {
  const SpmLayout layout = demo_layout();
  const Simulator sim(layout, demo_config());
  Workload w{demo_program(),
             {TraceEvent{0, AccessType::Fetch, 0, 0, 50},
              TraceEvent{1, AccessType::Write, 0, 0, 6},
              TraceEvent{2, AccessType::Read, 0, 0, 6}}};
  const std::vector<RegionId> map{0, 1, kNoRegion, kNoRegion};
  const RunResult res = sim.run(w, map);
  EXPECT_GT(res.spm_dynamic_energy_pj(), 0.0);
  EXPECT_GE(res.total_dynamic_energy_pj(), res.spm_dynamic_energy_pj());
  EXPECT_GT(res.spm_energy_per_access_pj(), 0.0);
  EXPECT_EQ(res.spm_reads(), 50u);  // block c reads go to cache
  EXPECT_EQ(res.spm_writes(), 6u);
}

TEST(SimulatorTest, RejectsIllFormedMappings) {
  const SpmLayout layout = demo_layout();
  const Simulator sim(layout, demo_config());
  Workload w{demo_program(), {}};
  // Wrong vector size.
  EXPECT_THROW(sim.run(w, std::vector<RegionId>{0, 1}), InvalidArgument);
  // Code block into a data region.
  EXPECT_THROW(
      sim.run(w, std::vector<RegionId>{1, kNoRegion, kNoRegion, kNoRegion}),
      InvalidArgument);
  // Data block into the instruction region.
  EXPECT_THROW(
      sim.run(w, std::vector<RegionId>{kNoRegion, 0, kNoRegion, kNoRegion}),
      InvalidArgument);
  // Block larger than its region (fn 512 B into 64 B parity region is
  // rejected by the space check first; use a data example instead).
  Program big("big", {Block{"huge", BlockKind::Data, 128}});
  Workload wb{big, {}};
  const SpmLayout tiny("tiny", {SpmRegionSpec{"DP", SpmSpace::Data, 64,
                                              lib().parity_sram()}});
  const Simulator sim2(tiny, demo_config());
  EXPECT_THROW(sim2.run(wb, std::vector<RegionId>{0}), InvalidArgument);
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  const SpmLayout layout = demo_layout();
  const Simulator sim(layout, demo_config());
  Workload w{demo_program(),
             {TraceEvent{0, AccessType::Fetch, 0, 0, 100},
              TraceEvent{1, AccessType::Write, 1, 0, 40},
              TraceEvent{3, AccessType::Read, 0, 0, 40}}};
  const std::vector<RegionId> map{0, 1, kNoRegion, 1};
  const RunResult r1 = sim.run(w, map);
  const RunResult r2 = sim.run(w, map);
  EXPECT_EQ(r1.total_cycles, r2.total_cycles);
  EXPECT_DOUBLE_EQ(r1.total_dynamic_energy_pj(),
                   r2.total_dynamic_energy_pj());
}

}  // namespace
}  // namespace ftspm
