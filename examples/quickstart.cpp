// Quickstart: the whole FTSPM pipeline on a program you define
// yourself, in ~60 lines.
//
//   1. describe the program's blocks and emit its access trace with
//      TraceBuilder;
//   2. profile the trace (Table-I-style statistics);
//   3. run the Mapping Determiner Algorithm against the hybrid SPM;
//   4. simulate, and read off cycles / energy / vulnerability.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "ftspm/core/systems.h"
#include "ftspm/report/render.h"
#include "ftspm/util/format.h"
#include "ftspm/workload/trace_builder.h"

int main() {
  using namespace ftspm;

  // --- 1. a tiny sensor-filter program -------------------------------
  Program program("sensor_filter",
                  {Block{"main", BlockKind::Code, 2 * 1024},
                   Block{"filter", BlockKind::Code, 1 * 1024},
                   Block{"samples", BlockKind::Data, 4 * 1024},   // input
                   Block{"coeffs", BlockKind::Data, 512},         // RO taps
                   Block{"state", BlockKind::Data, 64},           // hot!
                   Block{"stack", BlockKind::Stack, 256}});

  TraceBuilder b(program);
  b.call(*program.find("main"), 48);
  b.fetch(500);
  for (int frame = 0; frame < 3000; ++frame) {
    b.call(*program.find("filter"), 32, 2);
    b.fetch(220, 1);
    b.read(*program.find("samples"), 32,
           static_cast<std::uint32_t>(frame * 32 % 512));
    b.read(*program.find("coeffs"), 16, 0);
    b.read(*program.find("state"), 8, 0);   // IIR state read...
    b.write(*program.find("state"), 8, 0);  // ...and rewritten per frame
    b.ret(2);
  }
  b.ret();
  Trace trace = b.take();  // each call checked `program`
  Workload workload{std::move(program), std::move(trace)};

  // --- 2. profile -----------------------------------------------------
  const ProgramProfile profile = profile_workload(workload);
  std::cout << render_profile_table(workload.program, profile) << "\n";

  // --- 3. map with MDA against the paper's FTSPM structure -----------
  const StructureEvaluator evaluator;  // Table IV defaults, 40 nm
  const SystemResult result = evaluator.evaluate_ftspm(workload, profile);
  std::cout << render_mapping_table(workload.program, result.plan,
                                    evaluator.ftspm_layout())
            << "\n";

  // --- 4. results ------------------------------------------------------
  std::cout << "cycles:            " << with_commas(result.run.total_cycles)
            << "\n"
            << "SPM dynamic energy: "
            << si_string(result.run.spm_dynamic_energy_pj() * 1e-12, "J")
            << "\n"
            << "SPM vulnerability:  " << percent(result.avf.vulnerability())
            << "  (pure SRAM baseline would be ~"
            << percent(evaluator.evaluate_pure_sram(workload, profile)
                           .avf.vulnerability())
            << ")\n";
  // Expect: the write-hammered `state` block lands in a protected SRAM
  // region; everything else enjoys immune STT-RAM.
  return 0;
}
