#include "ftspm/core/mapping_determiner.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <vector>

#include "ftspm/obs/context.h"
#include "ftspm/util/error.h"

namespace ftspm {

const char* to_string(OptimizationPriority priority) noexcept {
  switch (priority) {
    case OptimizationPriority::Reliability: return "reliability";
    case OptimizationPriority::Performance: return "performance";
    case OptimizationPriority::Power: return "power";
    case OptimizationPriority::Endurance: return "endurance";
  }
  return "?";
}

MappingDeterminer::MappingDeterminer(const SpmLayout& layout,
                                     const SimConfig& sim, MdaConfig config)
    : layout_(layout), sim_(sim), config_(config) {
  for (RegionId r = 0; r < layout_.region_count(); ++r) {
    const SpmRegionSpec& spec = layout_.region(r);
    if (spec.space == SpmSpace::Instruction) {
      FTSPM_REQUIRE(i_region_ == kNoRegion,
                    "MDA expects a single instruction region");
      i_region_ = r;
      continue;
    }
    switch (spec.tech.protection) {
      case ProtectionKind::Immune:
        FTSPM_REQUIRE(d_stt_ == kNoRegion,
                      "MDA expects a single STT-RAM data region");
        d_stt_ = r;
        break;
      case ProtectionKind::SecDed:
        d_secded_ = r;
        break;
      case ProtectionKind::Parity:
        d_parity_ = r;
        break;
      case ProtectionKind::None:
        // Unprotected data SRAM has no role in Algorithm 1.
        break;
    }
  }
  FTSPM_REQUIRE(i_region_ != kNoRegion, "layout lacks an instruction region");
  FTSPM_REQUIRE(d_stt_ != kNoRegion, "layout lacks an STT-RAM data region");
  FTSPM_REQUIRE(config_.thresholds.performance_overhead >= 0.0 &&
                    config_.thresholds.energy_overhead >= 0.0,
                "thresholds must be non-negative");
}

namespace {

/// Step 3/4 victim score: evicting the block with the *smallest* score
/// first. Reliability keeps the paper's rule (smallest susceptibility);
/// the other priorities negate a benefit so that the largest benefit is
/// evicted first.
/// Records each MDA placement decision on its own trace lane
/// (timestamped by decision index — the algorithm has no cycle domain)
/// and tallies per-step eviction counters. No-op without a context.
class MdaObserver {
 public:
  explicit MdaObserver(obs::Context* obs)
      : registry_(obs != nullptr ? &obs->registry : nullptr),
        trace_(obs != nullptr ? obs->trace : nullptr) {
    if (trace_ != nullptr) lane_ = trace_->lane("mda", "decisions");
  }

  void decision(const char* step, const std::string& block_name,
                double score) {
    if (registry_ != nullptr)
      registry_->counter(std::string("mda.") + step).add(1);
    if (trace_ != nullptr)
      trace_->instant(lane_, std::string(step) + " " + block_name, index_,
                      {obs::TraceArg::num("score", score)});
    ++index_;
  }

 private:
  obs::Registry* registry_;
  obs::TraceEventSink* trace_;
  obs::TraceEventSink::LaneId lane_ = 0;
  std::uint64_t index_ = 0;
};

double victim_score(OptimizationPriority priority, const BlockProfile& bp,
                    const TechnologyParams& stt) {
  switch (priority) {
    case OptimizationPriority::Reliability:
      return bp.susceptibility();
    case OptimizationPriority::Performance:
      return -static_cast<double>(bp.writes) *
             (stt.write_latency_cycles - 1.0);
    case OptimizationPriority::Power:
      return -(static_cast<double>(bp.writes) * stt.write_energy_pj +
               static_cast<double>(bp.reads) * stt.read_energy_pj * 0.1);
    case OptimizationPriority::Endurance:
      return -static_cast<double>(bp.writes);
  }
  return 0.0;
}

}  // namespace

MappingPlan MappingDeterminer::determine(const Program& program,
                                         const ProgramProfile& profile,
                                         obs::Context* obs) const {
  FTSPM_REQUIRE(profile.blocks.size() == program.block_count(),
                "profile does not match program");

  MdaObserver observer(obs);
  std::vector<BlockMapping> mappings(program.block_count());
  for (std::size_t i = 0; i < mappings.size(); ++i)
    mappings[i] = BlockMapping{static_cast<BlockId>(i), kNoRegion,
                               MappingReason::Mapped};

  // ---- step 1a: code blocks into the I-SPM (hottest first) ----------
  {
    std::vector<BlockId> code;
    for (std::size_t i = 0; i < program.block_count(); ++i)
      if (program.block(static_cast<BlockId>(i)).is_code())
        code.push_back(static_cast<BlockId>(i));
    std::stable_sort(code.begin(), code.end(), [&](BlockId a, BlockId b) {
      return profile.blocks[a].reads > profile.blocks[b].reads;
    });
    const std::uint64_t capacity = layout_.region(i_region_).data_bytes;
    std::uint64_t used = 0;
    for (BlockId id : code) {
      const std::uint64_t size = program.block(id).size_bytes;
      if (size > capacity) {
        mappings[id].reason = MappingReason::TooLarge;
      } else if (used + size <= capacity) {
        mappings[id].region = i_region_;
        used += size;
      } else {
        mappings[id].reason = MappingReason::CodeCapacity;
      }
    }
  }

  // ---- step 1b: every data block that fits goes to STT-RAM ----------
  const SpmRegionSpec& stt = layout_.region(d_stt_);
  for (std::size_t i = 0; i < program.block_count(); ++i) {
    const Block& blk = program.block(static_cast<BlockId>(i));
    if (!blk.is_data()) continue;
    if (blk.size_bytes <= stt.data_bytes)
      mappings[i].region = d_stt_;
    else
      mappings[i].reason = MappingReason::TooLarge;
  }

  auto region_vector = [&] {
    std::vector<RegionId> v(mappings.size());
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = mappings[i].region;
    return v;
  };
  auto stt_data_blocks = [&] {
    std::vector<BlockId> v;
    for (const auto& m : mappings)
      if (m.region == d_stt_) v.push_back(m.block);
    return v;
  };

  // ---- steps 2-4: threshold-driven eviction loops --------------------
  const ScenarioEstimator estimator(layout_, sim_, program, profile,
                                    config_.estimator);
  auto evict_until = [&](double threshold, auto overhead_of,
                         MappingReason reason, const char* step) {
    while (true) {
      std::vector<BlockId> resident = stt_data_blocks();
      if (resident.empty()) return;
      const std::vector<RegionId> scenario = region_vector();
      if (overhead_of(scenario) <= threshold) return;
      // Victim: smallest score; ties by block id for determinism.
      BlockId victim = resident.front();
      double best = victim_score(config_.priority, profile.blocks[victim],
                                 stt.tech);
      for (BlockId id : resident) {
        const double s =
            victim_score(config_.priority, profile.blocks[id], stt.tech);
        if (s < best) {
          best = s;
          victim = id;
        }
      }
      mappings[victim].region = kNoRegion;
      mappings[victim].reason = reason;
      observer.decision(step, program.block(victim).name, best);
    }
  };

  evict_until(
      config_.thresholds.performance_overhead,
      [&](const std::vector<RegionId>& s) {
        return estimator.performance_overhead(s);
      },
      MappingReason::EvictedPerformance, "evict.performance");
  evict_until(
      config_.thresholds.energy_overhead,
      [&](const std::vector<RegionId>& s) {
        return estimator.energy_overhead(s);
      },
      MappingReason::EvictedEnergy, "evict.energy");

  // ---- step 5: endurance filter --------------------------------------
  for (BlockId id : stt_data_blocks()) {
    const BlockProfile& bp = profile.blocks[id];
    const bool block_hot =
        bp.writes > config_.thresholds.write_cycles_threshold;
    const bool word_hot =
        config_.thresholds.word_write_threshold > 0 &&
        bp.max_word_writes > config_.thresholds.word_write_threshold;
    if (block_hot || word_hot) {
      mappings[id].region = kNoRegion;
      mappings[id].reason = MappingReason::EvictedEndurance;
      observer.decision("evict.endurance", program.block(id).name,
                        static_cast<double>(bp.writes));
    }
  }

  // ---- step 6: split evictees around the average susceptibility ------
  std::vector<BlockId> evicted;
  for (const auto& m : mappings) {
    if (m.reason == MappingReason::EvictedPerformance ||
        m.reason == MappingReason::EvictedEnergy ||
        m.reason == MappingReason::EvictedEndurance)
      evicted.push_back(m.block);
  }
  if (!evicted.empty()) {
    const double avg =
        std::accumulate(evicted.begin(), evicted.end(), 0.0,
                        [&](double acc, BlockId id) {
                          return acc + profile.blocks[id].susceptibility();
                        }) /
        static_cast<double>(evicted.size());
    auto fits = [&](BlockId id, RegionId r) {
      return r != kNoRegion &&
             program.block(id).size_bytes <= layout_.region(r).data_bytes;
    };
    for (BlockId id : evicted) {
      const bool high = profile.blocks[id].susceptibility() >= avg;
      const RegionId preferred = high ? d_secded_ : d_parity_;
      const RegionId fallback = high ? d_parity_ : d_secded_;
      if (fits(id, preferred)) {
        mappings[id].region = preferred;
        mappings[id].reason = preferred == d_secded_
                                  ? MappingReason::ReassignedSecDed
                                  : MappingReason::ReassignedParity;
      } else if (fits(id, fallback)) {
        mappings[id].region = fallback;
        mappings[id].reason = fallback == d_secded_
                                  ? MappingReason::ReassignedSecDed
                                  : MappingReason::ReassignedParity;
      } else {
        mappings[id].reason = MappingReason::NoSramRoom;
      }
      observer.decision(mappings[id].reason == MappingReason::NoSramRoom
                            ? "no_sram_room"
                            : (mappings[id].region == d_secded_
                                   ? "reassign.secded"
                                   : "reassign.parity"),
                        program.block(id).name,
                        profile.blocks[id].susceptibility());
    }

    // Post-placement check: Algorithm 1 sizes evictees against the
    // region, not against each other, so step 6 can overcommit the
    // small SRAM regions (the paper's own case study places two
    // arrays in the one-array-sized SEC-DED region). Mild overcommit
    // is fine — the on-line phase time-shares the region — but
    // fine-grained interleaving would thrash, so while the estimated
    // performance overhead stays above threshold, demote the least
    // susceptible SRAM-placed evictee to the cache path.
    while (true) {
      const std::vector<RegionId> scenario = region_vector();
      if (estimator.performance_overhead(scenario) <=
          config_.thresholds.performance_overhead)
        break;
      std::optional<BlockId> victim;
      double best = 0.0;
      for (BlockId id : evicted) {
        if (mappings[id].region != d_secded_ &&
            mappings[id].region != d_parity_)
          continue;
        const double s = profile.blocks[id].susceptibility();
        if (!victim || s < best) {
          best = s;
          victim = id;
        }
      }
      if (!victim) break;
      mappings[*victim].region = kNoRegion;
      mappings[*victim].reason = MappingReason::DemotedTimeSharing;
      observer.decision("demote.time_sharing",
                        program.block(*victim).name, best);
    }
  }

  // ---- step 7 (extension): capacity-aware STT-RAM backfill -----------
  // Steps 3-4 evict by susceptibility without regard to region
  // pressure, so an eviction cascade can leave spare STT-RAM capacity
  // while endurance-*safe* blocks sit in the scarce SRAM regions or out
  // in the cache. Returning such a block to STT-RAM is a pure win —
  // immune cells, cheap reads — so refill spare capacity with the most
  // susceptible endurance-safe candidates, keeping the threshold
  // overheads satisfied.
  {
    std::uint64_t stt_used = 0;
    for (const auto& m : mappings)
      if (m.region == d_stt_) stt_used += program.block(m.block).size_bytes;

    std::vector<BlockId> candidates;
    for (const auto& m : mappings) {
      const Block& blk = program.block(m.block);
      if (!blk.is_data() || m.region == d_stt_) continue;
      if (blk.size_bytes > stt.data_bytes) continue;
      const BlockProfile& bp = profile.blocks[m.block];
      if (bp.writes > config_.thresholds.write_cycles_threshold) continue;
      if (config_.thresholds.word_write_threshold > 0 &&
          bp.max_word_writes > config_.thresholds.word_write_threshold)
        continue;
      candidates.push_back(m.block);
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](BlockId a, BlockId b) {
                       return profile.blocks[a].susceptibility() >
                              profile.blocks[b].susceptibility();
                     });
    for (BlockId id : candidates) {
      const Block& blk = program.block(id);
      if (stt_used + blk.size_bytes > stt.data_bytes) continue;
      const BlockMapping saved = mappings[id];
      mappings[id].region = d_stt_;
      mappings[id].reason = MappingReason::RestoredStt;
      const ScenarioOverheads over = estimator.overheads(region_vector());
      if (over.performance > config_.thresholds.performance_overhead ||
          over.energy > config_.thresholds.energy_overhead) {
        mappings[id] = saved;  // revert: backfill must stay in budget
        continue;
      }
      stt_used += blk.size_bytes;
      observer.decision("restore.stt", blk.name,
                        profile.blocks[id].susceptibility());
    }
  }

  return MappingPlan(layout_, std::move(mappings));
}

}  // namespace ftspm
