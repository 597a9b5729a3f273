// Property/fuzz tests: randomly generated (but always well-formed)
// workloads pushed through the whole pipeline, asserting structural
// invariants that must hold for *any* program:
//
//  * profiling conserves access counts and keeps ACE fractions bounded;
//  * MDA always emits a legal plan the simulator accepts;
//  * the simulator conserves accesses across SPM + caches and is
//    deterministic;
//  * the off-line TransferSchedule and the simulator's on-line
//    allocator implement the *same* residency policy: their per-region
//    DMA-in word counts must agree exactly.
#include <gtest/gtest.h>

#include "ftspm/core/system_campaign.h"
#include "ftspm/core/systems.h"
#include "ftspm/core/transfer_schedule.h"
#include "ftspm/util/rng.h"
#include "ftspm/workload/trace_builder.h"
#include "ftspm/workload/trace_io.h"

namespace ftspm {
namespace {

/// Generates a random but valid workload: 2-3 code blocks, 2-5 data
/// blocks, a stack, and a few hundred random builder operations.
Workload random_workload(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x51ed);
  std::vector<Block> blocks;
  const std::size_t n_code = 2 + rng.next_below(2);
  for (std::size_t i = 0; i < n_code; ++i)
    blocks.push_back(Block{"code" + std::to_string(i), BlockKind::Code,
                           static_cast<std::uint32_t>(
                               512u << rng.next_below(5))});  // 0.5..8 KiB
  const std::size_t n_data = 2 + rng.next_below(4);
  for (std::size_t i = 0; i < n_data; ++i)
    blocks.push_back(Block{"data" + std::to_string(i), BlockKind::Data,
                           static_cast<std::uint32_t>(
                               64u << rng.next_below(8))});  // 64 B..8 KiB
  blocks.push_back(Block{"stack", BlockKind::Stack, 512});
  Program program("fuzz" + std::to_string(seed), std::move(blocks));

  TraceBuilder b(program);
  b.call(0, 32);
  const std::size_t ops = 200 + rng.next_below(400);
  std::size_t depth = 1;
  for (std::size_t i = 0; i < ops; ++i) {
    switch (rng.next_below(6)) {
      case 0: {  // call a random function
        if (depth < 8) {
          const auto fn = static_cast<BlockId>(rng.next_below(n_code));
          b.call(fn, 16 + 8 * static_cast<std::uint32_t>(rng.next_below(4)),
                 static_cast<std::uint32_t>(rng.next_below(4)));
          ++depth;
        }
        break;
      }
      case 1: {  // return
        if (depth > 1) {
          b.ret(static_cast<std::uint32_t>(rng.next_below(4)));
          --depth;
        }
        break;
      }
      case 2:
        b.fetch(1 + rng.next_below(500),
                static_cast<std::uint16_t>(rng.next_below(3)));
        break;
      default: {  // data access
        const auto id =
            static_cast<BlockId>(n_code + rng.next_below(n_data));
        const auto words = program.block(id).size_words();
        const auto off = static_cast<std::uint32_t>(rng.next_below(words));
        if (rng.next_bool(0.35))
          b.write(id, 1 + rng.next_below(words * 2), off);
        else
          b.read(id, 1 + rng.next_below(words * 2), off);
        break;
      }
    }
  }
  while (depth-- > 0) b.ret();
  Trace trace = b.take();
  return Workload{std::move(program), std::move(trace)};
}

class FuzzPipeline : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzPipeline, ProfilerConservesCounts) {
  const Workload w = random_workload(GetParam());
  const ProgramProfile prof = profile_workload(w);
  std::uint64_t profiled = 0;
  for (const BlockProfile& bp : prof.blocks) {
    profiled += bp.accesses();
    EXPECT_GE(prof.ace_fraction(w.program, bp.id), 0.0);
    EXPECT_LE(prof.ace_fraction(w.program, bp.id), 1.0);
    EXPECT_LE(bp.lifetime_cycles, prof.total_cycles);
  }
  EXPECT_EQ(profiled, w.total_accesses());
  EXPECT_EQ(prof.total_cycles, w.nominal_cycles());

  // Lifetimes partition time per class: each class's sum is bounded by
  // the total timebase.
  std::uint64_t code_life = 0, data_life = 0;
  for (const BlockProfile& bp : prof.blocks) {
    if (w.program.block(bp.id).is_code())
      code_life += bp.lifetime_cycles;
    else
      data_life += bp.lifetime_cycles;
  }
  EXPECT_LE(code_life, prof.total_cycles);
  EXPECT_LE(data_life, prof.total_cycles);
}

TEST_P(FuzzPipeline, MdaPlansAreAlwaysLegal) {
  const Workload w = random_workload(GetParam());
  const ProgramProfile prof = profile_workload(w);
  const StructureEvaluator evaluator;
  const SystemResult r = evaluator.evaluate_ftspm(w, prof);  // must not throw
  for (const BlockMapping& m : r.plan.mappings()) {
    if (!m.mapped()) continue;
    const SpmRegionSpec& spec = evaluator.ftspm_layout().region(m.region);
    EXPECT_LE(w.program.block(m.block).size_bytes, spec.data_bytes);
    EXPECT_EQ(w.program.block(m.block).is_code(),
              spec.space == SpmSpace::Instruction);
  }
  EXPECT_LE(r.avf.vulnerability(), 1.0);
  EXPECT_GE(r.avf.vulnerability(), 0.0);
}

TEST_P(FuzzPipeline, SimulatorConservesAccesses) {
  const Workload w = random_workload(GetParam());
  const StructureEvaluator evaluator;
  for (const SystemResult& r : evaluator.evaluate_all(w)) {
    const std::uint64_t covered = r.run.spm_accesses() +
                                  r.run.icache.accesses() +
                                  r.run.dcache.accesses();
    EXPECT_EQ(covered, w.total_accesses()) << r.structure;
    EXPECT_GE(r.run.total_cycles, w.total_accesses());
  }
}

TEST_P(FuzzPipeline, PipelineIsDeterministic) {
  const Workload w1 = random_workload(GetParam());
  const Workload w2 = random_workload(GetParam());
  const StructureEvaluator evaluator;
  const auto r1 = evaluator.evaluate_all(w1);
  const auto r2 = evaluator.evaluate_all(w2);
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].run.total_cycles, r2[i].run.total_cycles);
    EXPECT_DOUBLE_EQ(r1[i].avf.vulnerability(), r2[i].avf.vulnerability());
  }
}

TEST_P(FuzzPipeline, ScheduleAndSimulatorAgreeOnDmaTraffic) {
  // The off-line schedule and the on-line allocator run the same LRU
  // policy over the same per-region access order, so the words each
  // region DMA-loads must match exactly.
  const Workload w = random_workload(GetParam());
  const ProgramProfile prof = profile_workload(w);
  const StructureEvaluator evaluator;
  const SystemResult r = evaluator.evaluate_ftspm(w, prof);
  const TransferSchedule sched = TransferSchedule::generate(
      w.program, prof, r.plan, evaluator.ftspm_layout());

  std::vector<std::uint64_t> sched_in(evaluator.ftspm_layout().region_count(),
                                      0);
  for (const TransferCommand& c : sched.commands())
    if (c.op == TransferCommand::Op::MapIn) sched_in[c.region] += c.words;
  for (RegionId region = 0;
       region < evaluator.ftspm_layout().region_count(); ++region) {
    EXPECT_EQ(sched_in[region], r.run.regions[region].dma_in_words)
        << "region " << evaluator.ftspm_layout().region(region).name;
  }
  // The schedule's write-back estimate is conservative (any written
  // block is treated as always-dirty): never below the simulator's.
  std::uint64_t sim_out = 0;
  for (const RegionRunStats& s : r.run.regions) sim_out += s.dma_out_words;
  EXPECT_GE(sched.words_out(), sim_out);
}

TEST_P(FuzzPipeline, SystemCampaignStaysBelowAnalyticBound) {
  const Workload w = random_workload(GetParam());
  const ProgramProfile prof = profile_workload(w);
  const StructureEvaluator evaluator;
  const SystemResult r = evaluator.evaluate_ftspm(w, prof);
  CampaignConfig cfg;
  cfg.strikes = 20'000;
  cfg.seed = GetParam();
  const CampaignResult mc = run_campaign(
      make_injection_regions(evaluator.ftspm_layout(), r.plan, w.program,
                             prof),
      evaluator.strike_model(), cfg);
  // MC can only lose harm to codeword straddles; allow MC noise.
  EXPECT_LE(mc.vulnerability(), r.avf.vulnerability() * 1.25 + 0.01);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipeline,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace ftspm

namespace ftspm {
namespace {

TEST_P(FuzzPipeline, TraceIoRoundTripsExactly) {
  const Workload w = random_workload(GetParam());
  const Workload parsed = parse_workload(serialize_workload(w));
  ASSERT_EQ(parsed.trace.size(), w.trace.size());
  EXPECT_EQ(parsed.total_accesses(), w.total_accesses());
  EXPECT_EQ(parsed.nominal_cycles(), w.nominal_cycles());
  // The profile of the round-tripped workload is identical.
  const ProgramProfile a = profile_workload(w);
  const ProgramProfile b = profile_workload(parsed);
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    EXPECT_EQ(a.blocks[i].reads, b.blocks[i].reads);
    EXPECT_EQ(a.blocks[i].writes, b.blocks[i].writes);
    EXPECT_EQ(a.blocks[i].ace_cycles, b.blocks[i].ace_cycles);
  }
}

TEST_P(FuzzPipeline, EnergyHybridAlsoProducesLegalPlans) {
  const Workload w = random_workload(GetParam());
  const ProgramProfile prof = profile_workload(w);
  const StructureEvaluator evaluator;
  const SystemResult r = evaluator.evaluate_energy_hybrid(w, prof);
  const std::uint64_t covered = r.run.spm_accesses() +
                                r.run.icache.accesses() +
                                r.run.dcache.accesses();
  EXPECT_EQ(covered, w.total_accesses());
  EXPECT_LE(r.avf.vulnerability(), 1.0);
}

}  // namespace
}  // namespace ftspm
