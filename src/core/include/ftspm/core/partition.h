// Multi-task SPM partitioning (extension).
//
// The paper evaluates one program owning the whole SPM; the embedded
// systems it targets run task sets (its related work [5], Takase et
// al. DATE'10, partitions SPM space among prioritised preemptive
// tasks). This module carves the hybrid FTSPM complement into per-task
// sub-SPMs — every region split in proportion to each task's weighted
// memory demand, quantised to an allocation granule — and then runs
// the ordinary per-task pipeline (MDA, simulation, AVF, endurance)
// inside each task's share. Spatial partitioning keeps the
// fault-isolation story intact: a task's strikes land in its own
// regions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ftspm/core/spm_config.h"
#include "ftspm/core/systems.h"
#include "ftspm/workload/trace.h"

namespace ftspm {

/// One task in the set.
struct TaskSpec {
  const Workload* workload = nullptr;
  double weight = 1.0;  ///< Relative priority/importance (> 0).
};

struct PartitionConfig {
  /// Allocation granule for every region split (bytes).
  std::uint64_t granule_bytes = 512;
  /// Floor: every task receives at least one granule of every region
  /// (so every task keeps a working hybrid SPM).
  bool guarantee_floor = true;
};

/// A task's carved share and its evaluation inside it.
struct TaskPartition {
  std::string task_name;
  double weight = 1.0;
  double demand = 0.0;          ///< Weighted demand used for the split.
  FtspmDimensions dims;         ///< The task's sub-SPM.
  SystemResult result;          ///< FTSPM pipeline inside the share.
};

struct PartitionResult {
  std::vector<TaskPartition> tasks;

  /// Access-weighted mean vulnerability across the task set.
  double weighted_vulnerability() const;
  /// Sum of per-task SPM dynamic energies.
  double total_dynamic_energy_pj() const;
};

/// Splits `total` (the shared complement) among the tasks and runs the
/// per-task pipeline. Demand per task = weight x total profiled
/// accesses. Throws on empty task sets, null workloads, or non-positive
/// weights. Each task's evaluation is handed `obs` (nullable).
PartitionResult partition_and_evaluate(
    const std::vector<TaskSpec>& tasks,
    const TechnologyLibrary& lib = TechnologyLibrary(),
    const MdaConfig& mda = {}, const FtspmDimensions& total = {},
    const PartitionConfig& config = {}, obs::Context* obs = nullptr);

/// The split itself, exposed for tests and tooling: returns one
/// FtspmDimensions per task, each region summing to the total (up to
/// granule rounding absorbed by the largest-demand task).
std::vector<FtspmDimensions> partition_dimensions(
    const std::vector<double>& demands, const FtspmDimensions& total,
    const PartitionConfig& config = {});

}  // namespace ftspm
