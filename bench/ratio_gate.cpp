// Speed-ratio gate for the campaign engines. Each batched engine is
// timed against its strike-at-a-time reference (the ftspm_oracle
// target) in this one process, and the gated figure per pair is the
// median over 9 reps of reference ns/strike ÷ engine ns/strike. Both
// sides share the host and the moment, so no baseline is recorded
// anywhere. Each rep runs both sides back to back, alternating which
// goes first, and each side runs about 50 ms or more.
//
//   ratio_gate            (takes no options; any argument exits 2)
//
// Prints one JSON document on stdout and exits 1 if any median is below
// its floor. Each pair also prints one line on stderr (its median, floor
// and margin over the floor), so a miss reads straight from a CI log.
// See docs/performance.md.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <vector>

#include "ftspm/core/system_campaign.h"
#include "ftspm/core/systems.h"
#include "ftspm/exec/parallel_campaign.h"
#include "ftspm/fault/recovery.h"
#include "ftspm/mem/technology_library.h"
#include "ftspm/oracle/recovery_reference.h"
#include "ftspm/oracle/strike_oracle.h"
#include "ftspm/oracle/temporal_reference.h"
#include "ftspm/util/error.h"
#include "ftspm/util/json.h"
#include "ftspm/workload/case_study.h"

namespace {

using namespace ftspm;

constexpr int kReps = 9;

template <typename Fn>
double elapsed_ms(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

CampaignConfig config_for(std::uint64_t strikes) {
  CampaignConfig cfg;
  cfg.strikes = strikes;
  return cfg;
}

/// The live-array shape bench/micro_recovery times: one 8 KB SEC-DED
/// SRAM region, a quarter of it dirty, scrubbing on.
std::vector<RecoveryRegion> live_array(double ace_occupancy) {
  const TechnologyLibrary lib;
  RecoveryRegion region;
  region.inject = InjectionRegion{RegionGeometry(8192, 8),
                                  ProtectionKind::SecDed, ace_occupancy, 1};
  region.tech = lib.secded_sram();
  region.dirty_fraction = 0.25;
  region.refetch_words = 64;
  region.scrub = true;
  return {region};
}

RecoveryPolicy scrub_every(std::uint64_t interval) {
  RecoveryPolicy policy;
  policy.recover = true;
  policy.scrub_interval = interval;
  return policy;
}

/// Both recovery sides start fresh, as a shard does: the engine's zero
/// error planes, the reference's filled images. Setup is left out of
/// the timing.
double run_recovery(const LiveArrayCampaign& engine,
                    const RecoveryReference& reference, std::uint64_t strikes,
                    bool batched) {
  const CampaignConfig cfg = config_for(strikes);
  RecoveryShardSide side;
  RecoveryReferenceSide reference_side;
  if (batched)
    engine.ensure_shard_images(side);
  else
    reference.fill_reference_images(reference_side, cfg.seed);
  CampaignShardState core =
      begin_campaign_shard(cfg.seed ^ LiveArrayCampaign::kSeedSalt);
  const double ms = elapsed_ms([&] {
    if (batched)
      engine.run_chunk(cfg, core, side, strikes);
    else
      reference.run_chunk(cfg, core, reference_side, strikes);
  });
  FTSPM_CHECK(core.done == strikes, "recovery side ran short");
  return ms;
}

double run_temporal(const TemporalCampaign& engine,
                    const TemporalReference& reference, std::uint64_t strikes,
                    bool batched) {
  const CampaignConfig cfg = config_for(strikes);
  CampaignShardState state =
      begin_campaign_shard(cfg.seed ^ TemporalCampaign::kSeedSalt);
  const double ms = elapsed_ms([&] {
    if (batched)
      engine.run_chunk(cfg, state, strikes);
    else
      reference.run_chunk(cfg, state, strikes);
  });
  FTSPM_CHECK(state.done == strikes, "temporal side ran short");
  return ms;
}

/// Kernel and oracle classify the same (origin, flips, RNG) sequence
/// on one 8 KB SEC-DED region, so the ratio is the classifier's alone.
double run_classifier(std::uint64_t strikes, bool kernel) {
  const InjectionRegion region{RegionGeometry(8192, 8), ProtectionKind::SecDed,
                               1.0, 1};
  const std::uint64_t bits = region.geometry.physical_bits();
  CampaignScratch scratch;
  Rng rng(11);
  StrikeOutcome worst = StrikeOutcome::Masked;
  const double ms = elapsed_ms([&] {
    std::uint64_t bit = 0;
    for (std::uint64_t s = 0; s < strikes; ++s) {
      const auto flips = static_cast<std::uint32_t>(1 + (s & 3));
      const std::uint64_t origin = bit % bits;
      worst = std::max(
          worst, kernel ? classify_strike(region, origin, flips, rng, scratch)
                        : classify_strike_oracle(region, origin, flips, rng));
      bit += 131;
    }
  });
  FTSPM_CHECK(worst != StrikeOutcome::Masked, "classifier loop saw no upset");
  return ms;
}

double at_rank(std::vector<double> v, std::size_t rank) {
  std::sort(v.begin(), v.end());
  return v[rank];
}

/// Times one pair, appends its JSON object to `w`, and returns whether
/// its median ratio reached `floor`. `run(strikes, engine)` runs the
/// engine (true) or the reference (false) side and returns its ms.
template <typename Run>
bool gate_pair(JsonWriter& w, const char* name, double floor,
               std::uint64_t engine_strikes, std::uint64_t reference_strikes,
               Run&& run) {
  std::vector<double> engine_ms, reference_ms, ratios;
  for (int rep = 0; rep < kReps; ++rep) {
    double e = 0.0, r = 0.0;
    if (rep % 2 == 0) {
      e = run(engine_strikes, true);
      r = run(reference_strikes, false);
    } else {
      r = run(reference_strikes, false);
      e = run(engine_strikes, true);
    }
    engine_ms.push_back(e);
    reference_ms.push_back(r);
    ratios.push_back((r / static_cast<double>(reference_strikes)) /
                     (e / static_cast<double>(engine_strikes)));
  }
  const double median = at_rank(ratios, kReps / 2);
  w.begin_object()
      .field("name", name)
      .field("engine_strikes", engine_strikes)
      .field("reference_strikes", reference_strikes)
      .begin_array("engine_ms");
  for (const double ms : engine_ms) w.element(ms);
  w.end_array().begin_array("reference_ms");
  for (const double ms : reference_ms) w.element(ms);
  w.end_array()
      .field("ratio_q1", at_rank(ratios, kReps / 4))
      .field("ratio_median", median)
      .field("ratio_q3", at_rank(ratios, kReps - 1 - kReps / 4))
      .field("floor", floor)
      .field("pass", median >= floor)
      .end_object();
  char line[128];
  std::snprintf(line, sizeof line,
                "ratio_gate: %-14s median %.3f floor %.2f margin %+.1f%% %s",
                name, median, floor, 100.0 * (median / floor - 1.0),
                median >= floor ? "pass" : "FAIL");
  std::cerr << line << "\n";
  return median >= floor;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::cerr << "usage: " << argv[0] << "  (takes no options)\n";
    return 2;
  }

  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  const std::vector<InjectionRegion> surface{
      {RegionGeometry(8192, 8), ProtectionKind::SecDed, 0.9, 1},
      {RegionGeometry(8192, 1), ProtectionKind::Parity, 0.7, 1},
      {RegionGeometry(2048, 0), ProtectionKind::None, 0.4, 1},
      {RegionGeometry(2048, 0), ProtectionKind::Immune, 1.0, 1}};
  // The demand-heavy shape (every fourth read consumed, a sweep every
  // 2048 strikes) and a scrub-heavy one (sparse reads, a sweep every
  // 256) stress the two halves of the recovery engine separately.
  const LiveArrayCampaign demand(live_array(0.25), model, scrub_every(2048));
  const RecoveryReference demand_ref(live_array(0.25), model,
                                     scrub_every(2048));
  const LiveArrayCampaign scrub(live_array(0.05), model, scrub_every(256));
  const RecoveryReference scrub_ref(live_array(0.05), model, scrub_every(256));
  const Workload workload = make_case_study(CaseStudyTargets{}.scaled_down(8));
  const ProgramProfile profile = profile_workload(workload);
  const StructureEvaluator evaluator;
  const SystemResult ftspm = evaluator.evaluate_ftspm(workload, profile);
  const TemporalCampaign temporal(evaluator.ftspm_layout(), ftspm.plan,
                                  workload.program, profile,
                                  evaluator.strike_model());
  const TemporalReference temporal_ref(evaluator.ftspm_layout(), ftspm.plan,
                                       workload.program, profile,
                                       evaluator.strike_model());

  JsonWriter w;
  w.begin_object().field("reps", static_cast<std::uint64_t>(kReps));
  w.begin_array("pairs");
  // Each floor is about the geometric midpoint of two pair medians from
  // Release builds on a shared 4-vCPU Xeon VM (GCC 12, -O3): the lowest
  // of about 50 runs of unchanged code, and the highest of 3 runs with
  // a ~30% slowdown planted in that engine's loop. docs/performance.md
  // says how to re-derive them.
  // unchanged >= 3.64, planted <= 3.30
  bool pass = gate_pair(w, "static", 3.45, 5'000'000, 1'250'000,
                        [&](std::uint64_t n, bool engine) {
                          const CampaignConfig cfg = config_for(n);
                          CampaignResult r;
                          const double ms = elapsed_ms([&] {
                            r = engine
                                    ? run_campaign(surface, model, cfg)
                                    : reference_campaign(surface, model, cfg);
                          });
                          FTSPM_CHECK(r.masked + r.dre + r.due + r.sdc == n,
                                      "static side ran short");
                          return ms;
                        });
  // unchanged >= 2.36, planted <= 2.09
  pass &= gate_pair(w, "recovery", 2.2, 2'000'000, 800'000,
                    [&](std::uint64_t n, bool engine) {
                      return run_recovery(demand, demand_ref, n, engine);
                    });
  // unchanged >= 3.66, planted (in the same loop) <= 3.32
  pass &= gate_pair(w, "recovery_scrub", 3.5, 2'000'000, 800'000,
                    [&](std::uint64_t n, bool engine) {
                      return run_recovery(scrub, scrub_ref, n, engine);
                    });
  // unchanged >= 2.13, planted <= 1.86
  pass &= gate_pair(w, "temporal", 2.0, 3'600'000, 1'500'000,
                    [&](std::uint64_t n, bool engine) {
                      return run_temporal(temporal, temporal_ref, n, engine);
                    });
  // unchanged >= 5.94, planted <= 4.94; well above the kernel's
  // historical 3x claim, which a 2x slowdown would still pass.
  pass &= gate_pair(w, "classifier", 5.4, 3'000'000, 500'000, run_classifier);
  w.end_array().field("pass", pass).end_object();
  std::cout << w.str() << "\n";
  return pass ? 0 : 1;
}
