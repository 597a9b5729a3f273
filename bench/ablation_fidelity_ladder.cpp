// Ablation — the reliability-model fidelity ladder.
//
// The same question ("what fraction of strikes hurt?") answered three
// ways for the case study, per structure:
//
//   1. analytic     — the paper's Eqs. 1-7 (area x ACE x class
//                     probabilities);
//   2. static MC    — Monte-Carlo with real codecs over surfaces whose
//                     residency is folded into one occupancy number;
//   3. temporal MC  — Monte-Carlo that samples an execution instant and
//                     resolves the struck word's occupant from the
//                     transfer schedule's residency spans.
//
// Expected shape: each step down the ladder can only uncover *more*
// masking (empty words, straddled codewords), so vulnerability is
// non-increasing — and the FTSPM-vs-baseline gap survives at every
// fidelity.
#include "bench_io.h"

#include <iostream>

#include "ftspm/core/system_campaign.h"
#include "ftspm/core/systems.h"
#include "ftspm/util/format.h"
#include "ftspm/util/table.h"
#include "ftspm/workload/case_study.h"

int main(int argc, char** argv) {
  const ftspm::bench::Output bench_out(FTSPM_BENCH_NAME, argc, argv);
  using namespace ftspm;
  std::cout << "== Ablation: analytic vs static-MC vs temporal-MC "
               "vulnerability (case study) ==\n\n";
  const Workload workload = make_case_study();
  const ProgramProfile profile = profile_workload(workload);
  const StructureEvaluator evaluator;
  CampaignConfig cfg;
  cfg.strikes = 300'000;

  AsciiTable t({"Structure", "Analytic (Eqs. 1-7)", "Static Monte-Carlo",
                "Temporal Monte-Carlo"});
  t.set_align(0, Align::Left);
  struct Row {
    const SystemResult result;
    const SpmLayout& layout;
  };
  const Row rows[] = {
      {evaluator.evaluate_ftspm(workload, profile),
       evaluator.ftspm_layout()},
      {evaluator.evaluate_pure_sram(workload, profile),
       evaluator.pure_sram_layout()},
      {evaluator.evaluate_pure_stt(workload, profile),
       evaluator.pure_stt_layout()},
  };
  for (const Row& row : rows) {
    const CampaignResult static_mc =
        run_campaign(make_injection_regions(row.layout, row.result.plan,
                                            workload.program, profile),
                     evaluator.strike_model(), cfg);
    const CampaignResult temporal =
        run_temporal_campaign(row.layout, row.result.plan, workload.program,
                              profile, evaluator.strike_model(), cfg);
    t.add_row({row.result.structure,
               fixed(row.result.avf.vulnerability(), 4),
               fixed(static_mc.vulnerability(), 4),
               fixed(temporal.vulnerability(), 4)});
  }
  std::cout << t.render();
  std::cout << "\n(" << with_commas(cfg.strikes)
            << " strikes per campaign; the temporal model resolves the "
               "struck word's occupant at a sampled execution instant.)\n";
  return 0;
}
