// Set-associative write-back L1 cache model.
//
// Blocks the mapping algorithm leaves out of the SPM are served by the
// processor's L1 caches (Table IV row "Cache Inst./Data": 8 KiB,
// unprotected SRAM, 1-cycle hit). The model is functional-timing only:
// true LRU, write-allocate, write-back; no coherence (single core).
#pragma once

#include <cstdint>
#include <vector>

namespace ftspm {

struct CacheConfig {
  std::uint32_t size_bytes = 8 * 1024;
  std::uint32_t line_bytes = 32;
  std::uint32_t ways = 4;
  std::uint32_t hit_latency_cycles = 1;
};

struct CacheStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t writebacks = 0;

  std::uint64_t accesses() const noexcept { return reads + writes; }
  std::uint64_t misses() const noexcept { return read_misses + write_misses; }
  double miss_rate() const noexcept {
    return accesses() ? static_cast<double>(misses()) / accesses() : 0.0;
  }
};

/// Outcome of one cache access, used by the simulator for timing/energy.
struct CacheAccessResult {
  bool hit = true;
  bool writeback = false;  ///< A dirty victim line was evicted.
};

class Cache {
 public:
  explicit Cache(CacheConfig config);

  const CacheConfig& config() const noexcept { return config_; }
  const CacheStats& stats() const noexcept { return stats_; }

  /// Performs one word access at byte address `addr`.
  CacheAccessResult access(std::uint64_t addr, bool is_write) {
    return access_run(addr, 1, is_write);
  }

  /// Performs `words` >= 1 consecutive word accesses, all within the
  /// line holding byte address `addr`. Exactly equivalent to `words`
  /// access() calls: only the first can miss, since it leaves the line
  /// resident and nothing else touches the cache before the rest, which
  /// hit it. The result is the first access's; the rest only bump the
  /// statistics and the line's use stamp.
  CacheAccessResult access_run(std::uint64_t addr, std::uint64_t words,
                               bool is_write) {
    tick_ += words;
    (is_write ? stats_.writes : stats_.reads) += words;

    const std::uint64_t line_addr = addr >> line_shift_;
    const std::uint64_t set = line_addr & (sets_ - 1);
    const std::uint64_t tag = line_addr >> set_shift_;
    Line* base = &lines_[set * config_.ways];

    for (std::uint32_t w = 0; w < config_.ways; ++w) {
      Line& line = base[w];
      if (line.valid && line.tag == tag) {
        line.lru = tick_;
        line.dirty = line.dirty || is_write;
        return CacheAccessResult{true, false};
      }
    }

    // Miss: pick the invalid or least-recently-used way.
    ++(is_write ? stats_.write_misses : stats_.read_misses);
    Line* victim = base;
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
      Line& line = base[w];
      if (!line.valid) {
        victim = &line;
        break;
      }
      if (line.lru < victim->lru) victim = &line;
    }
    const bool writeback = victim->valid && victim->dirty;
    if (writeback) ++stats_.writebacks;
    victim->valid = true;
    victim->dirty = is_write;  // write-allocate
    victim->tag = tag;
    victim->lru = tick_;
    return CacheAccessResult{false, writeback};
  }

  /// Invalidates everything and clears statistics.
  void reset();

 private:
  struct Line {
    std::uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru = 0;  ///< Monotonic use stamp.
  };

  CacheConfig config_;
  CacheStats stats_;
  std::vector<Line> lines_;  ///< sets * ways, row-major by set.
  // Line size and set count are powers of two, so an address splits
  // into line, set and tag by shift and mask.
  std::uint32_t sets_ = 0;
  std::uint32_t line_shift_ = 0;  ///< log2(line_bytes).
  std::uint32_t set_shift_ = 0;   ///< log2(sets_).
  std::uint64_t tick_ = 0;
};

}  // namespace ftspm
