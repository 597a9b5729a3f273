#include "ftspm/core/systems.h"

#include "ftspm/core/baseline_mapper.h"
#include "ftspm/core/energy_hybrid_mapper.h"
#include "ftspm/util/error.h"

namespace ftspm {

AvfResult compute_system_avf(const SpmLayout& layout, const MappingPlan& plan,
                             const Program& program,
                             const ProgramProfile& profile,
                             const StrikeMultiplicityModel& strikes) {
  // A region assigned more block bytes than it has is time-shared by
  // the on-line phase: at any instant only `capacity` of those bits are
  // exposed to strikes, so each block's surface is scaled by the
  // region's occupancy ratio.
  std::vector<double> assigned_bits(layout.region_count(), 0.0);
  for (const BlockMapping& m : plan.mappings()) {
    if (!m.mapped()) continue;
    assigned_bits[m.region] +=
        static_cast<double>(program.block(m.block).size_words()) *
        layout.region(m.region).geometry().codeword_bits();
  }

  std::vector<AvfBlockTerm> terms;
  terms.reserve(program.block_count());
  for (const BlockMapping& m : plan.mappings()) {
    if (!m.mapped()) continue;  // cache-served blocks are outside the SPM
    const SpmRegionSpec& spec = layout.region(m.region);
    const RegionGeometry geom = spec.geometry();
    const double region_bits = static_cast<double>(geom.physical_bits());
    const double share =
        assigned_bits[m.region] > region_bits
            ? region_bits / assigned_bits[m.region]
            : 1.0;
    AvfBlockTerm term;
    term.physical_bits = static_cast<std::uint64_t>(
        static_cast<double>(program.block(m.block).size_words()) *
        geom.codeword_bits() * share);
    term.ace_fraction = profile.ace_fraction(program, m.block);
    term.protection = spec.tech.protection;
    term.interleave = spec.interleave;
    terms.push_back(term);
  }
  return compute_avf(terms, layout.total_physical_bits(), strikes);
}

std::vector<double> per_block_vulnerability(
    const SpmLayout& layout, const MappingPlan& plan, const Program& program,
    const ProgramProfile& profile, const StrikeMultiplicityModel& strikes) {
  // Mirrors compute_system_avf's weighting, reported per block.
  std::vector<double> assigned_bits(layout.region_count(), 0.0);
  for (const BlockMapping& m : plan.mappings()) {
    if (!m.mapped()) continue;
    assigned_bits[m.region] +=
        static_cast<double>(program.block(m.block).size_words()) *
        layout.region(m.region).geometry().codeword_bits();
  }
  const double total = static_cast<double>(layout.total_physical_bits());
  std::vector<double> out(program.block_count(), 0.0);
  for (const BlockMapping& m : plan.mappings()) {
    if (!m.mapped()) continue;
    const SpmRegionSpec& spec = layout.region(m.region);
    const RegionGeometry geom = spec.geometry();
    const double region_bits = static_cast<double>(geom.physical_bits());
    const double share = assigned_bits[m.region] > region_bits
                             ? region_bits / assigned_bits[m.region]
                             : 1.0;
    const double bits =
        static_cast<double>(program.block(m.block).size_words()) *
        geom.codeword_bits() * share;
    const RegionErrorProbabilities p = region_error_probabilities(
        spec.tech.protection, strikes, spec.interleave);
    out[m.block] = (bits / total) *
                   profile.ace_fraction(program, m.block) * p.p_harmful();
  }
  return out;
}

StructureEvaluator::StructureEvaluator(TechnologyLibrary lib, MdaConfig mda,
                                       FtspmDimensions ftspm_dims,
                                       BaselineDimensions baseline_dims)
    : lib_(lib),
      mda_(mda),
      ftspm_(make_ftspm_layout(lib_, ftspm_dims)),
      sram_(make_pure_sram_layout(lib_, baseline_dims)),
      stt_(make_pure_stt_layout(lib_, baseline_dims)),
      sim_(make_sim_config(lib_)),
      strikes_(StrikeMultiplicityModel::for_node(lib_.corner().node_nm)) {}

namespace {

SystemResult finish(const SpmLayout& layout, const SimConfig& sim,
                    MappingPlan plan, const Workload& workload,
                    const ProgramProfile& profile,
                    const StrikeMultiplicityModel& strikes,
                    std::string structure, obs::Context* obs) {
  const Simulator simulator(layout, sim);
  RunResult run = simulator.run(workload, plan.block_to_region(), obs);
  AvfResult avf =
      compute_system_avf(layout, plan, workload.program, profile, strikes);
  EnduranceReport endurance = compute_endurance(layout, run);
  return SystemResult{std::move(structure), std::move(plan), std::move(run),
                      avf, endurance};
}

}  // namespace

SystemResult StructureEvaluator::evaluate_ftspm(
    const Workload& workload, const ProgramProfile& profile,
    obs::Context* obs) const {
  const MappingDeterminer mda(ftspm_, sim_, mda_);
  MappingPlan plan = mda.determine(workload.program, profile, obs);
  return finish(ftspm_, sim_, std::move(plan), workload, profile, strikes_,
                "FTSPM", obs);
}

SystemResult StructureEvaluator::evaluate_pure_sram(
    const Workload& workload, const ProgramProfile& profile,
    obs::Context* obs) const {
  MappingPlan plan =
      determine_baseline_mapping(sram_, workload.program, profile);
  return finish(sram_, sim_, std::move(plan), workload, profile, strikes_,
                "Pure SRAM", obs);
}

SystemResult StructureEvaluator::evaluate_pure_stt(
    const Workload& workload, const ProgramProfile& profile,
    obs::Context* obs) const {
  MappingPlan plan =
      determine_baseline_mapping(stt_, workload.program, profile);
  return finish(stt_, sim_, std::move(plan), workload, profile, strikes_,
                "Pure STT-RAM", obs);
}

SystemResult StructureEvaluator::evaluate_energy_hybrid(
    const Workload& workload, const ProgramProfile& profile,
    obs::Context* obs) const {
  MappingPlan plan =
      determine_energy_hybrid_mapping(ftspm_, workload.program, profile);
  return finish(ftspm_, sim_, std::move(plan), workload, profile, strikes_,
                "Energy hybrid", obs);
}

std::vector<SystemResult> StructureEvaluator::evaluate_all(
    const Workload& workload, obs::Context* obs) const {
  const ProgramProfile profile = profile_workload(workload);
  std::vector<SystemResult> results;
  results.reserve(3);
  results.push_back(evaluate_ftspm(workload, profile, obs));
  results.push_back(evaluate_pure_sram(workload, profile, obs));
  results.push_back(evaluate_pure_stt(workload, profile, obs));
  return results;
}

}  // namespace ftspm
