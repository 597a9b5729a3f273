// Seeded mutation test for checkpoint_from_json plus resume: real
// static and temporal checkpoints, taken halfway through a campaign,
// are mutated and resumed. Text mutations (bit flips, digit swaps,
// truncations, splices, huge numbers) mostly exercise the parser; shard
// edits rewrite one shard's budget and progress with counters to match,
// so they get past it and exercise the validation. Every mutant must
// either throw ftspm::Error or resume to a run whose merged strikes
// equal the root budget. The seed is fixed, so a failure names a
// mutant that reproduces.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "ftspm/core/system_campaign.h"
#include "ftspm/core/systems.h"
#include "ftspm/exec/parallel_campaign.h"
#include "ftspm/exec/shard.h"
#include "ftspm/fault/strike_model.h"
#include "ftspm/util/error.h"
#include "ftspm/util/rng.h"
#include "ftspm/workload/case_study.h"
#include "support/text_mutator.h"

namespace ftspm::exec {
namespace {

using RunFn = std::function<ShardedRun(const CampaignConfig&,
                                       const ExecConfig&)>;

std::string temp_path(const char* stem) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + stem + "." +
         std::to_string(::getpid());
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

constexpr std::uint32_t kShards = 3;

/// The checkpoint `run` leaves at `path` when cancelled halfway.
std::string halfway_checkpoint(const RunFn& run, const CampaignConfig& cfg,
                               const std::string& path) {
  std::atomic<bool> cancel{false};
  ExecConfig exec;
  exec.shards = kShards;
  exec.checkpoint_path = path;
  exec.chunk_strikes = 500;
  exec.cancel = &cancel;
  CampaignConfig cancelling = cfg;
  cancelling.progress_interval = 500;
  cancelling.progress = [&](std::uint64_t done, std::uint64_t) {
    if (done >= cfg.strikes / 2) cancel.store(true, std::memory_order_relaxed);
  };
  EXPECT_FALSE(run(cancelling, exec).complete);
  return slurp(path);
}

/// Sets a shard's progress to `done` strikes, all masked, so its
/// counters still agree with it.
void set_done(ShardCheckpoint& shard, std::uint64_t done) {
  shard.done = done;
  shard.partial = CampaignResult{done, done, 0, 0, 0};
}

/// Rewrites one shard of `cp`: its budget, its progress, or both at one
/// value, picked near the shard's own numbers or far past them.
std::string edit_shard(CampaignCheckpoint cp, Rng& rng) {
  ShardCheckpoint& shard = cp.shards[rng.next_below(cp.shards.size())];
  const std::uint64_t values[] = {0,
                                  1,
                                  shard.done - 1,
                                  shard.done + 1,
                                  shard.strikes - 1,
                                  shard.strikes + 1,
                                  2 * shard.strikes,
                                  cp.strikes,
                                  std::uint64_t{1} << 53};
  const std::uint64_t v = values[rng.next_below(std::size(values))];
  switch (rng.next_below(3)) {
    case 0:
      shard.strikes = v;
      break;
    case 1:
      set_done(shard, v);
      break;
    default:
      shard.strikes = v;
      set_done(shard, v);
      break;
  }
  return checkpoint_to_json(cp);
}

struct Tally {
  int resumed = 0;
  int rejected = 0;
};

Tally run_mutants(const RunFn& run, const CampaignConfig& cfg,
                  const std::string& text, const std::string& donor,
                  const std::string& path, Rng& rng, int mutants) {
  const CampaignCheckpoint original = checkpoint_from_json(text);
  Tally tally;
  for (int m = 0; m < mutants; ++m) {
    std::string mutant;
    if (rng.next_below(2) == 0) {
      mutant = edit_shard(original, rng);
    } else {
      mutant = text;
      const std::uint64_t edits = 1 + rng.next_below(3);
      for (std::uint64_t k = 0; k < edits; ++k)
        testing_support::mutate(mutant, donor, rng);
    }
    SCOPED_TRACE("mutant " + std::to_string(m) + ": " + mutant);
    spit(path, mutant);
    ExecConfig resume;
    resume.shards = kShards;
    resume.resume_path = path;
    try {
      const ShardedRun resumed = run(cfg, resume);
      ++tally.resumed;
      EXPECT_TRUE(resumed.complete);
      EXPECT_EQ(resumed.merged.strikes, cfg.strikes);
    } catch (const Error&) {
      ++tally.rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "resume threw a non-ftspm exception: " << e.what();
    }
  }
  return tally;
}

TEST(CheckpointMutationTest, MutantsResumeToTheBudgetOrThrowError) {
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  const std::vector<InjectionRegion> surfaces{
      {RegionGeometry(2048, 8), ProtectionKind::SecDed, 0.9, 1},
      {RegionGeometry(1024, 1), ProtectionKind::Parity, 0.8, 1}};
  const RunFn static_run = [&](const CampaignConfig& cfg,
                               const ExecConfig& exec) {
    return run_campaign_sharded(surfaces, model, cfg, exec);
  };

  const Workload workload = make_case_study(CaseStudyTargets{}.scaled_down(8));
  const ProgramProfile profile = profile_workload(workload);
  const StructureEvaluator evaluator;
  const SystemResult ftspm = evaluator.evaluate_ftspm(workload, profile);
  const RunFn temporal_run = [&](const CampaignConfig& cfg,
                                 const ExecConfig& exec) {
    return run_temporal_campaign_parallel(
        evaluator.ftspm_layout(), ftspm.plan, workload.program, profile,
        evaluator.strike_model(), cfg, exec);
  };

  CampaignConfig cfg;
  cfg.strikes = 3'000;
  const std::string path = temp_path("ftspm_checkpoint_mutation");
  const RunFn* const runs[] = {&static_run, &temporal_run};
  std::vector<std::string> texts;
  for (const RunFn* run : runs)
    texts.push_back(halfway_checkpoint(*run, cfg, path));

  Rng rng(0xC4EC'0030);
  Tally total;
  for (std::size_t i = 0; i < texts.size(); ++i) {
    SCOPED_TRACE(i == 0 ? "static" : "temporal");
    const Tally t = run_mutants(*runs[i], cfg, texts[i],
                                texts[(i + 1) % texts.size()], path, rng, 500);
    total.resumed += t.resumed;
    total.rejected += t.rejected;
  }
  std::remove(path.c_str());
  RecordProperty("resumed", total.resumed);
  RecordProperty("rejected", total.rejected);
  // Both outcomes must occur, or the mutations test nothing.
  EXPECT_GT(total.resumed, 0);
  EXPECT_GT(total.rejected, 0);
}

}  // namespace
}  // namespace ftspm::exec
