// End-to-end structure evaluation: the library's top-level API.
//
// StructureEvaluator wires the whole pipeline together for the three
// SPM organisations the paper compares:
//
//   profile -> mapping (MDA for FTSPM, greedy baseline otherwise)
//           -> cycle/energy simulation -> AVF (Eqs. 1-7) -> endurance
//
// One call per structure returns everything the evaluation section's
// tables and figures are built from.
#pragma once

#include <string>
#include <vector>

#include "ftspm/core/endurance.h"
#include "ftspm/core/mapping_determiner.h"
#include "ftspm/core/mapping_plan.h"
#include "ftspm/core/spm_config.h"
#include "ftspm/fault/avf.h"
#include "ftspm/mem/technology_library.h"
#include "ftspm/profile/profiler.h"
#include "ftspm/sim/simulator.h"
#include "ftspm/workload/trace.h"

namespace ftspm {

/// Everything one (structure, workload) evaluation produced.
struct SystemResult {
  std::string structure;  ///< "FTSPM" / "Pure SRAM" / "Pure STT-RAM".
  MappingPlan plan;
  RunResult run;
  AvfResult avf;
  EnduranceReport endurance;
};

/// Assembles the AVF block terms for a mapped program and evaluates
/// Eqs. (1)-(7). Exposed for tests and ablations.
AvfResult compute_system_avf(const SpmLayout& layout, const MappingPlan& plan,
                             const Program& program,
                             const ProgramProfile& profile,
                             const StrikeMultiplicityModel& strikes);

/// Per-block share of Eq. 1's vulnerability (indexed by BlockId; zero
/// for unmapped or immune-resident blocks). Sums to the aggregate
/// vulnerability of compute_system_avf.
std::vector<double> per_block_vulnerability(
    const SpmLayout& layout, const MappingPlan& plan, const Program& program,
    const ProgramProfile& profile, const StrikeMultiplicityModel& strikes);

class StructureEvaluator {
 public:
  explicit StructureEvaluator(TechnologyLibrary lib = TechnologyLibrary(),
                              MdaConfig mda = {},
                              FtspmDimensions ftspm_dims = {},
                              BaselineDimensions baseline_dims = {});

  const TechnologyLibrary& library() const noexcept { return lib_; }
  const SpmLayout& ftspm_layout() const noexcept { return ftspm_; }
  const SpmLayout& pure_sram_layout() const noexcept { return sram_; }
  const SpmLayout& pure_stt_layout() const noexcept { return stt_; }
  const SimConfig& sim_config() const noexcept { return sim_; }
  const StrikeMultiplicityModel& strike_model() const noexcept {
    return strikes_;
  }

  /// Each evaluation hands `obs` (nullable, see obs/context.h) to the
  /// simulator and, for FTSPM, to the MDA.
  SystemResult evaluate_ftspm(const Workload& workload,
                              const ProgramProfile& profile,
                              obs::Context* obs = nullptr) const;
  SystemResult evaluate_pure_sram(const Workload& workload,
                                  const ProgramProfile& profile,
                                  obs::Context* obs = nullptr) const;
  SystemResult evaluate_pure_stt(const Workload& workload,
                                 const ProgramProfile& profile,
                                 obs::Context* obs = nullptr) const;

  /// The reliability-unaware energy-oriented hybrid policy (the
  /// paper's reference [10]) on the *same* FTSPM layout — the ablation
  /// isolating what susceptibility-aware placement buys.
  SystemResult evaluate_energy_hybrid(const Workload& workload,
                                      const ProgramProfile& profile,
                                      obs::Context* obs = nullptr) const;

  /// Profiles once and evaluates all three structures, in the order
  /// {FTSPM, Pure SRAM, Pure STT-RAM}.
  std::vector<SystemResult> evaluate_all(const Workload& workload,
                                         obs::Context* obs = nullptr) const;

 private:
  TechnologyLibrary lib_;
  MdaConfig mda_;
  SpmLayout ftspm_;
  SpmLayout sram_;
  SpmLayout stt_;
  SimConfig sim_;
  StrikeMultiplicityModel strikes_;
};

}  // namespace ftspm
