#include "ftspm/sim/simulator.h"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>

#include "ftspm/obs/metrics.h"
#include "ftspm/obs/trace_sink.h"
#include "ftspm/util/error.h"
#include "ftspm/util/repeated_add.h"

namespace ftspm {

double RunResult::spm_dynamic_energy_pj() const noexcept {
  double e = dma_energy_pj - dma_dram_side_energy_pj;
  for (const auto& r : regions) e += r.energy_pj();
  return e;
}

double RunResult::total_dynamic_energy_pj() const noexcept {
  double e = cache_energy_pj + dram_energy_pj + dma_energy_pj;
  for (const auto& r : regions) e += r.energy_pj();
  return e;
}

std::uint64_t RunResult::spm_reads() const noexcept {
  std::uint64_t n = 0;
  for (const auto& r : regions) n += r.reads;
  return n;
}

std::uint64_t RunResult::spm_writes() const noexcept {
  std::uint64_t n = 0;
  for (const auto& r : regions) n += r.writes;
  return n;
}

double RunResult::spm_energy_per_access_pj() const noexcept {
  const std::uint64_t n = spm_accesses();
  if (n == 0) return 0.0;
  double e = 0.0;
  for (const auto& r : regions) e += r.energy_pj();
  return e / static_cast<double>(n);
}

std::uint64_t dma_transfer_cycles(const DmaConfig& dma,
                                  const MainMemoryConfig& dram,
                                  std::uint32_t spm_latency_cycles,
                                  std::uint64_t words) noexcept {
  const std::uint32_t per_word =
      std::max<std::uint32_t>(dram.word_latency_cycles, spm_latency_cycles);
  return dma.setup_cycles + dram.line_latency_cycles + words * per_word;
}

Simulator::Simulator(SpmLayout layout, SimConfig config)
    : layout_(std::move(layout)), config_(config) {
  FTSPM_REQUIRE(config_.clock_mhz > 0.0, "clock must be positive");
}

// Per-event helper lambdas must stay inlined into the run loop: at -O2
// the inliner's unit-growth budget otherwise outlines evict() and
// ensure_resident(), a measured ~10% throughput loss on
// bench/micro_simulator. Mandatory-inline keeps codegen identical to a
// build without the instrumented run_impl<true> instantiation.
#if defined(__GNUC__) || defined(__clang__)
#define FTSPM_SIM_INLINE __attribute__((always_inline))
#else
#define FTSPM_SIM_INLINE
#endif

namespace {

/// Runtime residency bookkeeping for one block.
struct BlockState {
  bool resident = false;
  bool dirty = false;
  std::uint64_t last_use = 0;
  std::vector<std::uint64_t> wear;  ///< Per-word program writes while
                                    ///< resident (STT regions only).
};

/// Runtime state of one region's dynamic allocator.
struct RegionState {
  std::uint64_t used_words = 0;
  std::vector<BlockId> resident;  ///< Blocks currently loaded.
};

/// Everything the optional observability path needs; only the
/// run_impl<true> instantiation creates or touches it, so the default
/// run() executes instrumentation-free code.
struct ObsState {
  obs::TraceEventSink* trace = nullptr;
  obs::TraceEventSink::LaneId phase_lane = 0;
  obs::TraceEventSink::LaneId dma_lane = 0;
  obs::TraceEventSink::LaneId spm_lane = 0;
  obs::TraceEventSink::LaneId cache_lane = 0;
  obs::Counter* evictions = nullptr;
  obs::Counter* dma_transfers = nullptr;
  obs::Counter* dma_words = nullptr;
  obs::Counter* cache_fills = nullptr;
  obs::Histogram* dma_span = nullptr;  ///< Words per DMA transfer.

  /// Phase bookkeeping: stack of indices into RunResult::phases.
  std::map<std::string, std::size_t> phase_index;
  std::vector<std::size_t> phase_stack;
  /// Cache word accesses per phase, for its cache energy.
  std::vector<std::uint64_t> phase_cache_words;
};

/// Sampling period for cache-fill counter events in the trace (every
/// fill would swamp the file on cache-heavy workloads).
constexpr std::uint64_t kCacheFillSamplePeriod = 256;

}  // namespace

template <bool WithObs>
RunResult Simulator::run_impl(
    const Workload& workload,
    std::span<const RegionId> block_to_region) const {
  const Program& program = workload.program;
  FTSPM_REQUIRE(block_to_region.size() == program.block_count(),
                "mapping must cover every block");
  for (std::size_t i = 0; i < program.block_count(); ++i) {
    const RegionId r = block_to_region[i];
    if (r == kNoRegion) continue;
    const Block& b = program.block(static_cast<BlockId>(i));
    const SpmRegionSpec& spec = layout_.region(r);
    FTSPM_REQUIRE(b.size_bytes <= spec.data_bytes,
                  "block " + b.name + " does not fit region " + spec.name);
    const bool wants_code = spec.space == SpmSpace::Instruction;
    FTSPM_REQUIRE(b.is_code() == wants_code,
                  "block " + b.name + " mapped to wrong space " + spec.name);
  }

  RunResult res;
  res.layout_name = layout_.name();
  res.clock_mhz = config_.clock_mhz;
  res.regions.resize(layout_.region_count());
  res.block_max_word_writes.assign(program.block_count(), 0);
  res.block_spm_accesses.assign(program.block_count(), 0);
  res.block_cache_accesses.assign(program.block_count(), 0);

  Cache icache(config_.icache);
  Cache dcache(config_.dcache);
  const std::uint32_t line_words = config_.icache.line_bytes / 8;
  const std::uint32_t dline_words = config_.dcache.line_bytes / 8;

  std::vector<BlockState> blocks(program.block_count());
  std::vector<RegionState> regions(layout_.region_count());
  std::uint64_t tick = 0;

  // --- optional observability ---------------------------------------
  // Everything obs-related sits behind `if constexpr (WithObs)` so the
  // common WithObs=false instantiation is instrumentation-free code.
  [[maybe_unused]] std::unique_ptr<ObsState> obs_state;
  [[maybe_unused]] PhaseStats* cur_phase = nullptr;
  [[maybe_unused]] auto now = [&res]() noexcept {
    return res.compute_cycles + res.spm_cycles + res.cache_cycles +
           res.dram_penalty_cycles + res.dma_cycles;
  };
  [[maybe_unused]] auto enter_phase = [&](const std::string& name) {
    auto [it, inserted] =
        obs_state->phase_index.emplace(name, res.phases.size());
    if (inserted) {
      res.phases.push_back(PhaseStats{name, 0, 0, 0, 0, 0, 0, 0.0, 0.0, 0.0});
      obs_state->phase_cache_words.push_back(0);
    }
    obs_state->phase_stack.push_back(it->second);
    cur_phase = &res.phases[it->second];
  };
  if constexpr (WithObs) {
    obs_state = std::make_unique<ObsState>();
    obs::Registry& reg = obs::registry();
    reg.counter("sim.runs").add(1);
    obs_state->evictions = &reg.counter("sim.evictions");
    obs_state->dma_transfers = &reg.counter("sim.dma_transfers");
    obs_state->dma_words = &reg.counter("sim.dma_words");
    obs_state->cache_fills = &reg.counter("sim.cache_fills");
    obs_state->dma_span = &reg.histogram(
        "sim.dma_words_per_transfer",
        {8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0});
    if (obs::TraceEventSink* tr = obs::current_trace()) {
      obs_state->trace = tr;
      obs_state->phase_lane = tr->lane("sim", "phases");
      obs_state->dma_lane = tr->lane("sim", "dma");
      obs_state->spm_lane = tr->lane("sim", "spm");
      obs_state->cache_lane = tr->lane("sim", "cache");
      tr->begin(obs_state->phase_lane, "run:" + res.layout_name, 0);
    }
    enter_phase("(top)");
  }

  // DMA transfer of `words` words of `blk` between DRAM and a region.
  auto dma_transfer = [&](RegionId rid, BlockId blk, std::uint64_t words,
                          bool into_spm) {
    const SpmRegionSpec& spec = layout_.region(rid);
    const std::uint32_t spm_lat = into_spm ? spec.tech.write_latency_cycles
                                           : spec.tech.read_latency_cycles;
    const std::uint64_t cycles =
        dma_transfer_cycles(config_.dma, config_.dram, spm_lat, words);
    const double dram_e = words * (into_spm ? config_.dram.read_energy_pj
                                            : config_.dram.write_energy_pj);
    const double spm_e = words * (into_spm ? spec.tech.write_energy_pj
                                           : spec.tech.read_energy_pj);
    if constexpr (WithObs) {
      obs_state->dma_transfers->add(1);
      obs_state->dma_words->add(words);
      obs_state->dma_span->observe(static_cast<double>(words));
      cur_phase->dma_cycles += cycles;
      cur_phase->spm_energy_pj += spm_e;
      cur_phase->dram_energy_pj += dram_e;
      if (obs_state->trace != nullptr) {
        obs_state->trace->complete(
            obs_state->dma_lane,
            (into_spm ? "load " : "writeback ") + program.block(blk).name,
            now(), cycles,
            {obs::TraceArg::str("region", spec.name),
             obs::TraceArg::num("words", words)});
      }
    }
    res.dma_cycles += cycles;
    res.dma_energy_pj += dram_e + spm_e;
    res.dma_dram_side_energy_pj += dram_e;
    if (into_spm)
      res.regions[rid].dma_in_words += words;
    else
      res.regions[rid].dma_out_words += words;
  };

  auto evict = [&](RegionId rid, BlockId victim) FTSPM_SIM_INLINE {
    RegionState& rs = regions[rid];
    BlockState& vs = blocks[victim];
    if constexpr (WithObs) {
      obs_state->evictions->add(1);
      if (obs_state->trace != nullptr) {
        obs_state->trace->instant(
            obs_state->spm_lane, "evict " + program.block(victim).name,
            now(),
            {obs::TraceArg::str("region", layout_.region(rid).name),
             obs::TraceArg::str("dirty", vs.dirty ? "yes" : "no")});
      }
    }
    if (vs.dirty)
      dma_transfer(rid, victim, program.block(victim).size_words(), false);
    vs.resident = false;
    vs.dirty = false;
    rs.used_words -= program.block(victim).size_words();
    rs.resident.erase(std::find(rs.resident.begin(), rs.resident.end(),
                                victim));
  };

  auto ensure_resident = [&](BlockId id, RegionId rid) FTSPM_SIM_INLINE {
    BlockState& bs = blocks[id];
    bs.last_use = ++tick;
    if (bs.resident) return;
    RegionState& rs = regions[rid];
    const std::uint64_t need = program.block(id).size_words();
    while (rs.used_words + need > layout_.region(rid).data_words()) {
      FTSPM_CHECK(!rs.resident.empty(),
                  "allocator invariant: block fits an empty region");
      // Evict the least-recently-used resident block.
      BlockId victim = rs.resident.front();
      for (BlockId b : rs.resident)
        if (blocks[b].last_use < blocks[victim].last_use) victim = b;
      ++res.regions[rid].capacity_evictions;
      evict(rid, victim);
    }
    dma_transfer(rid, id, need, true);
    rs.used_words += need;
    rs.resident.push_back(id);
    bs.resident = true;
  };

  // `words` consecutive word accesses within one cache line. Only the
  // first can miss (Cache::access_run), so cycles and the fill trace see
  // it first, then the hits that follow it. Cache energy is summed after
  // the run from the access counts (repeated_add), bit-identical to
  // adding it once per word.
  auto cache_access = [&](Cache& cache, std::uint32_t cline_words,
                          std::uint64_t addr, std::uint64_t words,
                          bool is_write, const char* fill_counter) {
    const CacheAccessResult r = cache.access_run(addr, words, is_write);
    const std::uint64_t hit_cycles = cache.config().hit_latency_cycles;
    res.cache_cycles += hit_cycles;
    if constexpr (WithObs) cur_phase->cache_cycles += hit_cycles;
    if (!r.hit) {
      res.dram_penalty_cycles += config_.dram.line_latency_cycles;
      res.dram_energy_pj += cline_words * config_.dram.read_energy_pj;
      if constexpr (WithObs) {
        obs_state->cache_fills->add(1);
        cur_phase->dram_penalty_cycles += config_.dram.line_latency_cycles;
        cur_phase->dram_energy_pj +=
            cline_words * config_.dram.read_energy_pj;
        if (obs_state->trace != nullptr &&
            obs_state->cache_fills->value() % kCacheFillSamplePeriod == 0) {
          obs_state->trace->value(
              obs_state->cache_lane, fill_counter, now(),
              static_cast<double>(obs_state->cache_fills->value()));
        }
      }
    }
    if (r.writeback) {
      res.dram_penalty_cycles += config_.dram.word_latency_cycles *
                                 cline_words;
      res.dram_energy_pj += cline_words * config_.dram.write_energy_pj;
      if constexpr (WithObs) {
        cur_phase->dram_penalty_cycles +=
            config_.dram.word_latency_cycles * cline_words;
        cur_phase->dram_energy_pj +=
            cline_words * config_.dram.write_energy_pj;
      }
    }
    res.cache_cycles += (words - 1) * hit_cycles;
    if constexpr (WithObs) {
      cur_phase->cache_cycles += (words - 1) * hit_cycles;
      obs_state->phase_cache_words[obs_state->phase_stack.back()] += words;
    }
  };

  for (const TraceEvent& e : workload.trace) {
    if (e.is_marker()) {
      if constexpr (WithObs) {
        if (e.type == AccessType::CallEnter) {
          const std::string& name = program.block(e.block).name;
          if (obs_state->trace != nullptr)
            obs_state->trace->begin(obs_state->phase_lane, name, now());
          enter_phase(name);
        } else if (obs_state->phase_stack.size() > 1) {
          // CallExit: return to the caller's phase. The guard tolerates
          // truncated traces whose call markers are unbalanced.
          if (obs_state->trace != nullptr)
            obs_state->trace->end(obs_state->phase_lane, now());
          obs_state->phase_stack.pop_back();
          cur_phase = &res.phases[obs_state->phase_stack.back()];
        }
      }
      continue;
    }
    const std::uint32_t n_words = program.block(e.block).size_words();
    res.compute_cycles += static_cast<std::uint64_t>(e.gap) * e.repeat;
    if constexpr (WithObs) {
      cur_phase->compute_cycles += static_cast<std::uint64_t>(e.gap) *
                                   e.repeat;
      cur_phase->accesses += e.repeat;
    }

    const RegionId rid = block_to_region[e.block];
    const bool is_write = e.type == AccessType::Write;

    if (rid != kNoRegion) {
      res.block_spm_accesses[e.block] += e.repeat;
      ensure_resident(e.block, rid);
      const SpmRegionSpec& spec = layout_.region(rid);
      RegionRunStats& rstats = res.regions[rid];
      BlockState& bs = blocks[e.block];
      if constexpr (WithObs) {
        const std::uint64_t spm_cyc =
            static_cast<std::uint64_t>(e.repeat) *
            (is_write ? spec.tech.write_latency_cycles
                      : spec.tech.read_latency_cycles);
        cur_phase->spm_cycles += spm_cyc;
        cur_phase->spm_energy_pj +=
            e.repeat * (is_write ? spec.tech.write_energy_pj
                                 : spec.tech.read_energy_pj);
      }
      if (is_write) {
        rstats.writes += e.repeat;
        rstats.write_energy_pj += e.repeat * spec.tech.write_energy_pj;
        res.spm_cycles += static_cast<std::uint64_t>(e.repeat) *
                          spec.tech.write_latency_cycles;
        bs.dirty = true;
        if (spec.tech.endurance_writes > 0.0) {
          // Endurance-limited technology: track per-word wear. Every
          // word takes one write per full lap of the run, and the words
          // of the partial lap one more.
          if (bs.wear.empty()) bs.wear.assign(n_words, 0);
          WordRun(e.offset, e.repeat, n_words)
              .for_each_distinct([&](std::uint64_t first, std::uint64_t len,
                                     std::uint64_t visits, std::uint64_t) {
                for (std::uint64_t i = 0; i < len; ++i)
                  bs.wear[first + i] += visits;
              });
        }
      } else {
        rstats.reads += e.repeat;
        rstats.read_energy_pj += e.repeat * spec.tech.read_energy_pj;
        res.spm_cycles += static_cast<std::uint64_t>(e.repeat) *
                          spec.tech.read_latency_cycles;
      }
    } else {
      res.block_cache_accesses[e.block] += e.repeat;
      const bool is_code = e.type == AccessType::Fetch;
      Cache& cache = is_code ? icache : dcache;
      const std::uint32_t cline = is_code ? line_words : dline_words;
      const std::uint64_t base = program.base_address(e.block);
      const char* fill_counter = is_code ? "icache_fills" : "dcache_fills";
      WordRun(e.offset, e.repeat, n_words)
          .for_each_line(base, cache.config().line_bytes,
                         [&](std::uint64_t addr, std::uint64_t words) {
                           cache_access(cache, cline, addr, words, is_write,
                                        fill_counter);
                         });
    }
  }

  // Final write-back of dirty resident blocks (end-of-program flush).
  for (std::size_t i = 0; i < program.block_count(); ++i) {
    const RegionId rid = block_to_region[i];
    if (rid != kNoRegion && blocks[i].resident && blocks[i].dirty)
      dma_transfer(rid, static_cast<BlockId>(i),
                   program.block(static_cast<BlockId>(i)).size_words(),
                   false);
  }

  // Wear roll-up.
  for (std::size_t i = 0; i < program.block_count(); ++i) {
    if (blocks[i].wear.empty()) continue;
    const std::uint64_t hottest =
        *std::max_element(blocks[i].wear.begin(), blocks[i].wear.end());
    res.block_max_word_writes[i] = hottest;
    const RegionId rid = block_to_region[i];
    if (rid != kNoRegion)
      res.regions[rid].max_word_writes =
          std::max(res.regions[rid].max_word_writes, hottest);
  }

  res.icache = icache.stats();
  res.dcache = dcache.stats();
  res.cache_energy_pj =
      repeated_add(0.0, config_.cache_access_energy_pj,
                   res.icache.accesses() + res.dcache.accesses());
  if constexpr (WithObs) {
    for (std::size_t i = 0; i < res.phases.size(); ++i)
      res.phases[i].cache_energy_pj =
          repeated_add(0.0, config_.cache_access_energy_pj,
                       obs_state->phase_cache_words[i]);
  }
  res.total_cycles = res.compute_cycles + res.spm_cycles + res.cache_cycles +
                     res.dram_penalty_cycles + res.dma_cycles;
  if constexpr (WithObs) {
    if (obs_state->trace != nullptr) {
      // Close any call spans left open by a truncated trace, then the
      // whole-run span opened before the first event.
      for (std::size_t d = obs_state->phase_stack.size(); d > 1; --d)
        obs_state->trace->end(obs_state->phase_lane, res.total_cycles);
      obs_state->trace->end(obs_state->phase_lane, res.total_cycles);
    }
  }
  const double time_us = static_cast<double>(res.total_cycles) /
                         config_.clock_mhz;
  res.spm_static_energy_pj = layout_.static_power_mw() * time_us * 1000.0;
  return res;
}

RunResult Simulator::run(const Workload& workload,
                         std::span<const RegionId> block_to_region) const {
  if (obs::enabled()) return run_impl<true>(workload, block_to_region);
  return run_impl<false>(workload, block_to_region);
}

#undef FTSPM_SIM_INLINE

}  // namespace ftspm
