// Ablation — analytic AVF equations vs Monte-Carlo injection with real
// codecs, plus the bit-interleaving extension.
//
// The paper computes vulnerability analytically (Eqs. 1-7), assuming
// every multi-bit upset lands inside one codeword. The Monte-Carlo
// campaign flips real adjacent bits in real parity/SEC-DED codewords:
//
//  * without interleaving, measured DUE/SDC sits slightly below the
//    analytic numbers (MBUs that straddle codeword boundaries split
//    into smaller, more correctable errors);
//  * with 4-way physical interleaving, SEC-DED corrects nearly every
//    MBU — the classic mitigation the paper leaves as future work.
#include "bench_io.h"

#include <iostream>

#include "ftspm/exec/parallel_campaign.h"
#include "ftspm/fault/avf.h"
#include "ftspm/fault/injector.h"
#include "ftspm/util/format.h"
#include "ftspm/util/table.h"

int main(int argc, char** argv) {
  const ftspm::bench::Output bench_out(FTSPM_BENCH_NAME, argc, argv);
  using namespace ftspm;
  std::cout << "== Ablation: analytic Eqs. 4-7 vs Monte-Carlo injection "
               "==\n\n";
  const StrikeMultiplicityModel model = StrikeMultiplicityModel::at_40nm();
  CampaignConfig cfg;
  cfg.strikes = 500'000;

  AsciiTable t({"Surface", "P(DRE)", "P(DUE)", "P(SDC)", "Vulnerability"});
  t.set_align(0, Align::Left);
  auto add_analytic = [&](const char* name, ProtectionKind kind) {
    const RegionErrorProbabilities p =
        region_error_probabilities(kind, model);
    t.add_row({name, percent(p.p_dre), percent(p.p_due), percent(p.p_sdc),
               percent(p.p_harmful())});
  };
  auto add_mc = [&](const char* name, ProtectionKind kind,
                    std::uint32_t interleave) {
    std::uint32_t check = kind == ProtectionKind::Parity ? 1u : 8u;
    const InjectionRegion region{RegionGeometry(8 * 1024, check), kind, 1.0,
                                 interleave};
    const CampaignResult r = run_campaign({region}, model, cfg);
    t.add_row({name, percent(r.fraction(r.dre)), percent(r.fraction(r.due)),
               percent(r.fraction(r.sdc)), percent(r.vulnerability())});
  };

  add_analytic("Parity, analytic (Eqs. 4/6)", ProtectionKind::Parity);
  add_mc("Parity, Monte-Carlo", ProtectionKind::Parity, 1);
  t.add_separator();
  add_analytic("SEC-DED, analytic (Eqs. 5/7)", ProtectionKind::SecDed);
  add_mc("SEC-DED, Monte-Carlo", ProtectionKind::SecDed, 1);
  t.add_separator();
  auto add_analytic_il = [&](const char* name, std::uint32_t il) {
    const RegionErrorProbabilities p =
        region_error_probabilities(ProtectionKind::SecDed, model, il);
    t.add_row({name, percent(p.p_dre), percent(p.p_due), percent(p.p_sdc),
               percent(p.p_harmful())});
  };
  add_analytic_il("SEC-DED, 2-way, analytic", 2);
  add_mc("SEC-DED, 2-way, Monte-Carlo", ProtectionKind::SecDed, 2);
  add_analytic_il("SEC-DED, 4-way, analytic", 4);
  add_mc("SEC-DED, 4-way, Monte-Carlo", ProtectionKind::SecDed, 4);
  add_analytic_il("SEC-DED, 8-way, analytic", 8);
  add_mc("SEC-DED, 8-way, Monte-Carlo", ProtectionKind::SecDed, 8);
  std::cout << t.render();
  std::cout << "\n(" << with_commas(cfg.strikes)
            << " strikes per campaign; 40 nm multiplicities 62/25/6/7%.)\n";
  return 0;
}
