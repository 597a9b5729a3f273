// Ablation — scrub interval vs residual vulnerability and repair cost.
//
// The live-array recovery campaign (fault/recovery.h) keeps every
// strike's bit flips resident until something decodes the word, so
// errors from different strikes accumulate in one codeword — exactly
// what a scrub engine exists to prevent. Two experiments:
//
//  1. A SEC-DED surface at partial ACE occupancy (most struck words are
//     not demand-read soon), swept over scrub intervals: the interval
//     directly trades residual DUE+SDC against scrub reads and repair
//     energy.
//  2. The case-study FTSPM mapping: MDA parks the write-heavy blocks in
//     the SEC-DED region at ~full occupancy, so errors never linger and
//     the DUEs that remain are intra-strike multi-bit upsets — the
//     failure mode the paper's bit interleaving targets, not scrubbing.
#include "bench_io.h"

#include <cstdint>
#include <iostream>
#include <vector>

#include "ftspm/core/system_campaign.h"
#include "ftspm/core/systems.h"
#include "ftspm/mem/technology_library.h"
#include "ftspm/util/format.h"
#include "ftspm/util/table.h"
#include "ftspm/workload/case_study.h"

namespace {

using namespace ftspm;

constexpr std::uint64_t kIntervals[] = {0, 16'384, 4'096, 1'024, 256};

std::string interval_label(std::uint64_t interval) {
  return interval == 0 ? "recover, no scrub" : "every " + with_commas(interval);
}

void surface_sweep() {
  std::cout << "-- SEC-DED surface, 8 KiB, ACE occupancy 0.25, 100k strikes "
               "--\n";
  const TechnologyLibrary lib;
  RecoveryRegion region;
  region.inject =
      InjectionRegion{RegionGeometry(8192, 8), ProtectionKind::SecDed, 0.25, 1};
  region.tech = lib.secded_sram();
  region.dirty_fraction = 0.25;
  region.refetch_words = 64;
  region.scrub = true;

  CampaignConfig cfg;
  cfg.strikes = 100'000;
  const StrikeMultiplicityModel strikes =
      StrikeMultiplicityModel::for_node(40.0);

  AsciiTable t({"Scrub interval", "Vulnerability", "DRE", "DUE", "SDC",
                "Latent fixes", "Repair cycles", "Repair E (uJ)"});
  t.set_align(0, Align::Left);
  for (const std::uint64_t interval : kIntervals) {
    const RecoveryPolicy policy =
        make_recovery_policy(SimConfig{}, /*recover=*/true, interval);
    const RecoveryResult r =
        run_recovery_campaign({region}, strikes, cfg, policy);
    t.add_row({interval_label(interval),
               fixed(r.strikes.vulnerability(), 4),
               percent(r.strikes.fraction(r.strikes.dre)),
               percent(r.strikes.fraction(r.strikes.due)),
               percent(r.strikes.fraction(r.strikes.sdc)),
               with_commas(r.recovery.scrub_corrections),
               with_commas(r.recovery.recovery_cycles),
               fixed(r.recovery.recovery_energy_pj / 1e6, 2)});
  }
  std::cout << t.render();
}

void case_study_sweep() {
  std::cout << "\n-- Case-study FTSPM mapping, 200k strikes --\n";
  const Workload w = make_case_study(CaseStudyTargets{}.scaled_down(8));
  const ProgramProfile prof = profile_workload(w);
  const StructureEvaluator evaluator;
  const SystemResult sys = evaluator.evaluate_ftspm(w, prof);
  const StrikeMultiplicityModel strikes = evaluator.strike_model();

  CampaignConfig cfg;
  cfg.strikes = 200'000;
  const CampaignResult statics = run_campaign(
      make_injection_regions(evaluator.ftspm_layout(), sys.plan, w.program,
                             prof),
      strikes, cfg);

  AsciiTable t({"Scrub interval", "Vulnerability", "DRE", "DUE", "SDC",
                "Repair cycles", "Repair E (uJ)"});
  t.set_align(0, Align::Left);
  t.add_row({"static (no recovery)", fixed(statics.vulnerability(), 4),
             percent(statics.fraction(statics.dre)),
             percent(statics.fraction(statics.due)),
             percent(statics.fraction(statics.sdc)), "-", "-"});
  for (const std::uint64_t interval : {std::uint64_t{0}, std::uint64_t{4096}}) {
    const RecoveryPolicy policy =
        make_recovery_policy(SimConfig{}, /*recover=*/true, interval);
    const RecoveryResult r = run_recovery_campaign(
        make_recovery_regions(evaluator.ftspm_layout(), sys.plan, w.program,
                              prof),
        strikes, cfg, policy);
    t.add_row({interval_label(interval),
               fixed(r.strikes.vulnerability(), 4),
               percent(r.strikes.fraction(r.strikes.dre)),
               percent(r.strikes.fraction(r.strikes.due)),
               percent(r.strikes.fraction(r.strikes.sdc)),
               with_commas(r.recovery.recovery_cycles),
               fixed(r.recovery.recovery_energy_pj / 1e6, 2)});
  }
  std::cout << t.render();
}

}  // namespace

int main(int argc, char** argv) {
  const ftspm::bench::Output bench_out(FTSPM_BENCH_NAME, argc, argv);
  std::cout << "== Ablation: scrub interval vs residual vulnerability "
               "(live-array recovery campaign) ==\n\n";
  surface_sweep();
  case_study_sweep();
  std::cout
      << "\n(Vulnerability is *residual* DUE+SDC after recovery: ECC "
         "corrections and successful\nre-fetches land in DRE, and 'latent "
         "fixes' counts single-bit errors the scrub engine\ncaught before a "
         "demand read could meet them compounded. On the partially-occupied\n"
         "surface, tightening the interval steadily converts DUE/SDC into "
         "DRE at a linear\ncycle/energy cost. On the case-study mapping the "
         "SEC-DED region runs at ~full ACE\noccupancy — errors are decoded "
         "on the next access anyway, so scrubbing only adds\ncost, and the "
         "surviving DUEs are intra-strike multi-bit upsets: the lever "
         "against\nthose is bit interleaving, exactly the paper's argument "
         "for its interleaved\nSEC-DED region.)\n";
  return 0;
}
