#include "ftspm/sim/simulator.h"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>

#include "ftspm/obs/context.h"
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

namespace {

/// One block's row of the per-call block table: everything the run loop
/// reads for an event, and the block's residency and wear state.
struct BlockRow {
  std::uint64_t base = 0;         ///< Off-chip byte address.
  std::uint64_t last_use = 0;     ///< Allocator tick of the last access.
  std::uint64_t accesses = 0;     ///< Word accesses (SPM or cache path).
  std::uint64_t* wear = nullptr;  ///< Per-word program writes while
                                  ///< resident; endurance-limited
                                  ///< regions only.
  std::uint32_t words = 0;
  RegionId region = kNoRegion;    ///< kNoRegion: the cache path.
  bool resident = false;
  bool dirty = false;
};

/// One region's row of the per-call region table: its technology's
/// costs, its dynamic allocator and its counters.
struct RegionRow {
  double read_energy_pj = 0.0;
  double write_energy_pj = 0.0;
  std::uint32_t read_latency_cycles = 0;
  std::uint32_t write_latency_cycles = 0;
  bool endurance_limited = false;  ///< Wear is tracked per word.
  std::uint64_t capacity_words = 0;
  std::uint64_t used_words = 0;
  std::vector<BlockId> resident;  ///< Blocks currently loaded.
  RegionRunStats stats;
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
RunResult Simulator::run_impl(const Workload& workload,
                              std::span<const RegionId> block_to_region,
                              [[maybe_unused]] obs::Context* obs) const {
  const Program& program = workload.program;
  const std::size_t n_blocks = program.block_count();
  FTSPM_REQUIRE(block_to_region.size() == n_blocks,
                "mapping must cover every block");

  // The per-call tables. The run loop reads an event's block and region
  // from these rows alone, and every counter it bumps lives in a row or
  // in a local below: kept in the returned RunResult, the totals would
  // be reloaded and stored around every event.
  std::vector<RegionRow> regions(layout_.region_count());
  for (std::size_t r = 0; r < regions.size(); ++r) {
    const SpmRegionSpec& spec = layout_.region(static_cast<RegionId>(r));
    RegionRow& row = regions[r];
    row.read_energy_pj = spec.tech.read_energy_pj;
    row.write_energy_pj = spec.tech.write_energy_pj;
    row.read_latency_cycles = spec.tech.read_latency_cycles;
    row.write_latency_cycles = spec.tech.write_latency_cycles;
    row.endurance_limited = spec.tech.endurance_writes > 0.0;
    row.capacity_words = spec.data_words();
  }
  std::vector<BlockRow> blocks(n_blocks);
  std::size_t wear_words = 0;
  for (std::size_t i = 0; i < n_blocks; ++i) {
    const Block& b = program.blocks()[i];
    BlockRow& row = blocks[i];
    row.base = program.base_address(static_cast<BlockId>(i));
    row.words = b.size_words();
    row.region = block_to_region[i];
    if (row.region == kNoRegion) continue;
    const SpmRegionSpec& spec = layout_.region(row.region);
    FTSPM_REQUIRE(b.size_bytes <= spec.data_bytes,
                  "block " + b.name + " does not fit region " + spec.name);
    const bool wants_code = spec.space == SpmSpace::Instruction;
    FTSPM_REQUIRE(b.is_code() == wants_code,
                  "block " + b.name + " mapped to wrong space " + spec.name);
    if (regions[row.region].endurance_limited) wear_words += row.words;
  }
  std::vector<std::uint64_t> wear(wear_words, 0);
  std::uint64_t* next_wear = wear.data();
  for (BlockRow& row : blocks) {
    if (row.region == kNoRegion || !regions[row.region].endurance_limited)
      continue;
    row.wear = next_wear;
    next_wear += row.words;
  }

  Cache icache(config_.icache);
  Cache dcache(config_.dcache);
  const std::uint32_t line_words = config_.icache.line_bytes / 8;
  const std::uint32_t dline_words = config_.dcache.line_bytes / 8;

  // Running totals, written to the result once the trace is done.
  std::uint64_t compute_cycles = 0;
  std::uint64_t spm_cycles = 0;
  std::uint64_t cache_cycles = 0;
  std::uint64_t dram_penalty_cycles = 0;
  std::uint64_t dma_cycles = 0;
  double dram_energy_pj = 0.0;
  double dma_energy_pj = 0.0;
  double dma_dram_side_energy_pj = 0.0;
  std::uint64_t tick = 0;

  RunResult res;
  res.layout_name = layout_.name();
  res.clock_mhz = config_.clock_mhz;

  // --- optional observability ---------------------------------------
  // Everything obs-related sits behind `if constexpr (WithObs)` so the
  // common WithObs=false instantiation is instrumentation-free code.
  [[maybe_unused]] std::unique_ptr<ObsState> obs_state;
  [[maybe_unused]] PhaseStats* cur_phase = nullptr;
  [[maybe_unused]] auto now = [&]() noexcept {
    return compute_cycles + spm_cycles + cache_cycles + dram_penalty_cycles +
           dma_cycles;
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
    obs::Registry& reg = obs->registry;
    reg.counter("sim.runs").add(1);
    obs_state->evictions = &reg.counter("sim.evictions");
    obs_state->dma_transfers = &reg.counter("sim.dma_transfers");
    obs_state->dma_words = &reg.counter("sim.dma_words");
    obs_state->cache_fills = &reg.counter("sim.cache_fills");
    obs_state->dma_span = &reg.histogram(
        "sim.dma_words_per_transfer",
        {8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0});
    if (obs::TraceEventSink* tr = obs->trace) {
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
    RegionRow& region = regions[rid];
    const std::uint32_t spm_lat = into_spm ? region.write_latency_cycles
                                           : region.read_latency_cycles;
    const std::uint64_t cycles =
        dma_transfer_cycles(config_.dma, config_.dram, spm_lat, words);
    const double dram_e = words * (into_spm ? config_.dram.read_energy_pj
                                            : config_.dram.write_energy_pj);
    const double spm_e = words * (into_spm ? region.write_energy_pj
                                           : region.read_energy_pj);
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
            {obs::TraceArg::str("region", layout_.region(rid).name),
             obs::TraceArg::num("words", words)});
      }
    }
    dma_cycles += cycles;
    dma_energy_pj += dram_e + spm_e;
    dma_dram_side_energy_pj += dram_e;
    if (into_spm)
      region.stats.dma_in_words += words;
    else
      region.stats.dma_out_words += words;
  };

  auto evict = [&](RegionId rid, BlockId victim) {
    RegionRow& region = regions[rid];
    BlockRow& vs = blocks[victim];
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
    if (vs.dirty) dma_transfer(rid, victim, vs.words, false);
    vs.resident = false;
    vs.dirty = false;
    region.used_words -= vs.words;
    region.resident.erase(
        std::find(region.resident.begin(), region.resident.end(), victim));
  };

  // First touch of a non-resident block: make room by evicting the
  // least-recently-used residents, then DMA the block in.
  auto load = [&](BlockId id, BlockRow& bs) {
    const RegionId rid = bs.region;
    RegionRow& region = regions[rid];
    const std::uint64_t need = bs.words;
    while (region.used_words + need > region.capacity_words) {
      FTSPM_CHECK(!region.resident.empty(),
                  "allocator invariant: block fits an empty region");
      BlockId victim = region.resident.front();
      for (BlockId b : region.resident)
        if (blocks[b].last_use < blocks[victim].last_use) victim = b;
      ++region.stats.capacity_evictions;
      evict(rid, victim);
    }
    dma_transfer(rid, id, need, true);
    region.used_words += need;
    region.resident.push_back(id);
    bs.resident = true;
  };

  // A contiguous word range of a cached block: one Cache::access_range
  // call, which reports each line fill, with the dirty victim it wrote
  // back, in line order. The event's hit cycles are booked after its
  // ranges (see the cache branch below), so a fill's trace timestamp
  // adds the hits of the event's words up to and including the filling
  // piece's first: `words_before_range` and the piece's `words_before`.
  auto cache_range = [&](Cache& cache, std::uint32_t cline_words,
                         std::uint64_t addr, std::uint64_t words,
                         bool is_write,
                         [[maybe_unused]] std::uint64_t words_before_range,
                         [[maybe_unused]] const char* fill_counter) {
    cache.access_range(
        addr, words, is_write,
        [&]([[maybe_unused]] std::uint64_t words_before, bool writeback) {
          dram_penalty_cycles += config_.dram.line_latency_cycles;
          dram_energy_pj += cline_words * config_.dram.read_energy_pj;
          if constexpr (WithObs) {
            obs_state->cache_fills->add(1);
            cur_phase->dram_penalty_cycles +=
                config_.dram.line_latency_cycles;
            cur_phase->dram_energy_pj +=
                cline_words * config_.dram.read_energy_pj;
            if (obs_state->trace != nullptr &&
                obs_state->cache_fills->value() % kCacheFillSamplePeriod ==
                    0) {
              const std::uint64_t hits =
                  (words_before_range + words_before + 1) *
                  cache.config().hit_latency_cycles;
              obs_state->trace->value(
                  obs_state->cache_lane, fill_counter, now() + hits,
                  static_cast<double>(obs_state->cache_fills->value()));
            }
          }
          if (writeback) {
            dram_penalty_cycles +=
                config_.dram.word_latency_cycles * cline_words;
            dram_energy_pj += cline_words * config_.dram.write_energy_pj;
            if constexpr (WithObs) {
              cur_phase->dram_penalty_cycles +=
                  config_.dram.word_latency_cycles * cline_words;
              cur_phase->dram_energy_pj +=
                  cline_words * config_.dram.write_energy_pj;
            }
          }
        });
  };

  const Trace& trace = workload.trace;
  for (std::size_t k = 0; k < trace.chunk_count(); ++k) {
    for (const TraceEvent e : trace.chunk(k)) {
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
      FTSPM_REQUIRE(e.block < n_blocks, "block id out of range");
      BlockRow& bs = blocks[e.block];
      compute_cycles += static_cast<std::uint64_t>(e.gap) * e.repeat;
      bs.accesses += e.repeat;
      if constexpr (WithObs) {
        cur_phase->compute_cycles += static_cast<std::uint64_t>(e.gap) *
                                     e.repeat;
        cur_phase->accesses += e.repeat;
      }
      const bool is_write = e.type == AccessType::Write;

      if (bs.region != kNoRegion) {
        bs.last_use = ++tick;
        if (!bs.resident) load(e.block, bs);
        RegionRow& region = regions[bs.region];
        RegionRunStats& rstats = region.stats;
        if constexpr (WithObs) {
          const std::uint64_t spm_cyc =
              static_cast<std::uint64_t>(e.repeat) *
              (is_write ? region.write_latency_cycles
                        : region.read_latency_cycles);
          cur_phase->spm_cycles += spm_cyc;
          cur_phase->spm_energy_pj +=
              e.repeat * (is_write ? region.write_energy_pj
                                   : region.read_energy_pj);
        }
        if (is_write) {
          rstats.writes += e.repeat;
          rstats.write_energy_pj += e.repeat * region.write_energy_pj;
          spm_cycles += static_cast<std::uint64_t>(e.repeat) *
                        region.write_latency_cycles;
          bs.dirty = true;
          if (region.endurance_limited) {
            // Endurance-limited technology: track per-word wear. Every
            // word takes one write per full lap of the run, and the words
            // of the partial lap one more.
            WordRun(e.offset, e.repeat, bs.words)
                .for_each_distinct([&](std::uint64_t first, std::uint64_t len,
                                       std::uint64_t visits, std::uint64_t) {
                  for (std::uint64_t i = 0; i < len; ++i)
                    bs.wear[first + i] += visits;
                });
          }
        } else {
          rstats.reads += e.repeat;
          rstats.read_energy_pj += e.repeat * region.read_energy_pj;
          spm_cycles += static_cast<std::uint64_t>(e.repeat) *
                        region.read_latency_cycles;
        }
      } else {
        const bool is_code = e.type == AccessType::Fetch;
        Cache& cache = is_code ? icache : dcache;
        const std::uint32_t cline = is_code ? line_words : dline_words;
        const char* fill_counter = is_code ? "icache_fills" : "dcache_fills";
        WordRun(e.offset, e.repeat, bs.words)
            .for_each_range(0, e.repeat,
                            [&](std::uint64_t first, std::uint64_t len,
                                std::uint64_t visit) {
                              cache_range(cache, cline, bs.base + first * 8,
                                          len, is_write, visit, fill_counter);
                            });
        // Every word access costs the hit latency; a fill's DRAM penalty
        // comes on top of it.
        const std::uint64_t hit_cycles =
            static_cast<std::uint64_t>(e.repeat) *
            cache.config().hit_latency_cycles;
        cache_cycles += hit_cycles;
        if constexpr (WithObs) {
          cur_phase->cache_cycles += hit_cycles;
          obs_state->phase_cache_words[obs_state->phase_stack.back()] +=
              e.repeat;
        }
      }
    }
  }

  // Final write-back of dirty resident blocks (end-of-program flush).
  for (std::size_t i = 0; i < n_blocks; ++i) {
    const BlockRow& row = blocks[i];
    if (row.region != kNoRegion && row.resident && row.dirty)
      dma_transfer(row.region, static_cast<BlockId>(i), row.words, false);
  }

  // Wear roll-up, and the block rows' access counts by path.
  res.block_max_word_writes.assign(n_blocks, 0);
  res.block_spm_accesses.assign(n_blocks, 0);
  res.block_cache_accesses.assign(n_blocks, 0);
  for (std::size_t i = 0; i < n_blocks; ++i) {
    const BlockRow& row = blocks[i];
    if (row.region == kNoRegion) {
      res.block_cache_accesses[i] = row.accesses;
      continue;
    }
    res.block_spm_accesses[i] = row.accesses;
    if (row.wear == nullptr) continue;
    const std::uint64_t hottest =
        *std::max_element(row.wear, row.wear + row.words);
    res.block_max_word_writes[i] = hottest;
    RegionRunStats& rstats = regions[row.region].stats;
    rstats.max_word_writes = std::max(rstats.max_word_writes, hottest);
  }
  res.regions.reserve(regions.size());
  for (const RegionRow& row : regions) res.regions.push_back(row.stats);

  res.compute_cycles = compute_cycles;
  res.spm_cycles = spm_cycles;
  res.cache_cycles = cache_cycles;
  res.dram_penalty_cycles = dram_penalty_cycles;
  res.dma_cycles = dma_cycles;
  res.dram_energy_pj = dram_energy_pj;
  res.dma_energy_pj = dma_energy_pj;
  res.dma_dram_side_energy_pj = dma_dram_side_energy_pj;
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
                         std::span<const RegionId> block_to_region,
                         obs::Context* obs) const {
  if (obs != nullptr) return run_impl<true>(workload, block_to_region, obs);
  return run_impl<false>(workload, block_to_region, nullptr);
}

}  // namespace ftspm
