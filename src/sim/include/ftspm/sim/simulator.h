// Trace-driven cycle/energy simulator (the FaCSim substitute).
//
// Executes a workload trace against one SPM layout and one block->region
// mapping, producing the quantities every evaluation artefact consumes:
// total cycles (performance, Table IV structures), per-region read/write
// counts (Figs 2 & 4), SPM dynamic and static energy (Figs 6 & 7), and
// per-word STT-RAM wear (Table III, Fig 8).
//
// Blocks mapped to a region are managed *dynamically*: Algorithm 1 only
// guarantees each block individually fits its region, so at run time the
// region is time-shared — first touch DMA-loads a block, and when space
// runs out the least-recently-used resident block is evicted (written
// back if dirty). This models the paper's on-line phase, where mapping /
// un-mapping commands inserted in the code move blocks between off-chip
// memory and the SPM during execution. Unmapped blocks are served by
// the L1 caches.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ftspm/sim/cache.h"
#include "ftspm/sim/spm.h"
#include "ftspm/workload/trace.h"

namespace ftspm::obs {
struct Context;
}  // namespace ftspm::obs

namespace ftspm {

/// Off-chip memory timing/energy (per 64-bit word).
struct MainMemoryConfig {
  std::uint32_t line_latency_cycles = 20;  ///< First word / line fill.
  std::uint32_t word_latency_cycles = 2;   ///< Streaming words (DMA).
  double read_energy_pj = 90.0;
  double write_energy_pj = 95.0;
};

struct DmaConfig {
  std::uint32_t setup_cycles = 16;  ///< Channel programming per transfer.
};

/// Cycles one DMA transfer of `words` 64-bit words costs under the
/// simulator's transfer model: channel setup + first-line latency + one
/// beat per word at the slower of the DRAM stream rate and the SPM-side
/// access latency (`spm_latency_cycles` is the region's write latency
/// for map-ins, read latency for write-backs). Exposed so other
/// consumers — the fault-recovery campaign's DUE re-fetch path — book
/// transfers with exactly the cost the simulator charges for block
/// map-ins.
std::uint64_t dma_transfer_cycles(const DmaConfig& dma,
                                  const MainMemoryConfig& dram,
                                  std::uint32_t spm_latency_cycles,
                                  std::uint64_t words) noexcept;

struct SimConfig {
  CacheConfig icache{};  ///< Table IV: 8 KiB, 1-cycle.
  CacheConfig dcache{};
  MainMemoryConfig dram{};
  DmaConfig dma{};
  double clock_mhz = 200.0;  ///< Embedded core clock.
  double cache_access_energy_pj = 21.0;  ///< Unprotected SRAM word access.
};

/// Per-region counters for one run.
struct RegionRunStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  double read_energy_pj = 0.0;
  double write_energy_pj = 0.0;
  std::uint64_t dma_in_words = 0;
  std::uint64_t dma_out_words = 0;
  std::uint64_t capacity_evictions = 0;
  /// Hottest word's program-write count among blocks mapped here
  /// (DMA refills excluded, matching the paper's endurance accounting).
  std::uint64_t max_word_writes = 0;

  std::uint64_t accesses() const noexcept { return reads + writes; }
  double energy_pj() const noexcept {
    return read_energy_pj + write_energy_pj;
  }
};

/// Cycle/energy attribution for one execution phase. Phases follow the
/// trace's CallEnter/CallExit markers: costs are charged to the
/// innermost active code block, and to "(top)" outside any call.
/// Populated only when run() is handed an obs::Context, so the default
/// hot path pays nothing.
struct PhaseStats {
  std::string name;
  std::uint64_t compute_cycles = 0;
  std::uint64_t spm_cycles = 0;
  std::uint64_t cache_cycles = 0;
  std::uint64_t dram_penalty_cycles = 0;
  std::uint64_t dma_cycles = 0;
  std::uint64_t accesses = 0;
  double spm_energy_pj = 0.0;    ///< Region arrays + SPM side of DMA.
  double cache_energy_pj = 0.0;
  double dram_energy_pj = 0.0;   ///< Cache-miss traffic + DRAM-side DMA.

  std::uint64_t total_cycles() const noexcept {
    return compute_cycles + spm_cycles + cache_cycles +
           dram_penalty_cycles + dma_cycles;
  }
  double energy_pj() const noexcept {
    return spm_energy_pj + cache_energy_pj + dram_energy_pj;
  }
};

/// Everything a run produced.
struct RunResult {
  std::string layout_name;
  double clock_mhz = 200.0;

  std::uint64_t total_cycles = 0;
  std::uint64_t compute_cycles = 0;
  std::uint64_t spm_cycles = 0;
  std::uint64_t cache_cycles = 0;
  std::uint64_t dram_penalty_cycles = 0;
  std::uint64_t dma_cycles = 0;

  std::vector<RegionRunStats> regions;
  CacheStats icache;
  CacheStats dcache;

  double cache_energy_pj = 0.0;
  double dram_energy_pj = 0.0;
  double dma_energy_pj = 0.0;  ///< DRAM + SPM sides of transfers.
  /// The DRAM-side share of dma_energy_pj (subtracted when reporting
  /// SPM-only dynamic energy).
  double dma_dram_side_energy_pj = 0.0;
  double spm_static_energy_pj = 0.0;

  /// Per-phase attribution in first-appearance order; empty unless
  /// run() was handed an obs::Context.
  std::vector<PhaseStats> phases;

  /// Per-block hottest-word write count while SPM-resident (wear).
  std::vector<std::uint64_t> block_max_word_writes;
  /// Per-block accesses served by the SPM / by the cache path.
  std::vector<std::uint64_t> block_spm_accesses;
  std::vector<std::uint64_t> block_cache_accesses;

  double seconds() const noexcept {
    return static_cast<double>(total_cycles) / (clock_mhz * 1e6);
  }
  /// Dynamic energy dissipated inside the SPM arrays (+codecs),
  /// including the SPM side of DMA refills. The quantity Fig. 7 plots.
  double spm_dynamic_energy_pj() const noexcept;
  /// SPM + caches + off-chip.
  double total_dynamic_energy_pj() const noexcept;
  std::uint64_t spm_reads() const noexcept;
  std::uint64_t spm_writes() const noexcept;
  std::uint64_t spm_accesses() const noexcept {
    return spm_reads() + spm_writes();
  }
  /// Energy per SPM access in pJ (Fig. 3's per-structure comparison).
  double spm_energy_per_access_pj() const noexcept;
};

/// The simulator. Construct once per layout; run() is const and
/// reusable across workloads/mappings.
class Simulator {
 public:
  explicit Simulator(SpmLayout layout, SimConfig config = {});

  const SpmLayout& layout() const noexcept { return layout_; }
  const SimConfig& config() const noexcept { return config_; }

  /// Runs `workload` with the given block->region assignment
  /// (kNoRegion = cache path). Throws InvalidArgument when a mapped
  /// block does not fit its region or targets the wrong space, or when
  /// a memory event names a block the program does not have. With
  /// `obs` set, the run also attributes cycles and energy to phases
  /// (RunResult::phases), books the sim.* metrics into obs->registry
  /// and records its lanes on obs->trace when that is set.
  RunResult run(const Workload& workload,
                std::span<const RegionId> block_to_region,
                obs::Context* obs = nullptr) const;

 private:
  /// The actual engine: one walk of the trace over per-call block and
  /// region tables, with every running total in a local until the end.
  /// One kernel, instantiated twice so the WithObs=false hot path
  /// carries no instrumentation code at all: run() picks the variant
  /// by whether it was handed a context, and WithObs=true adds phase
  /// accounting and trace events under `if constexpr`.
  template <bool WithObs>
  RunResult run_impl(const Workload& workload,
                     std::span<const RegionId> block_to_region,
                     obs::Context* obs) const;

  SpmLayout layout_;
  SimConfig config_;
};

}  // namespace ftspm
