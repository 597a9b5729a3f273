// Set-associative write-back L1 cache model.
//
// Blocks the mapping algorithm leaves out of the SPM are served by the
// processor's L1 caches (Table IV row "Cache Inst./Data": 8 KiB,
// unprotected SRAM, 1-cycle hit). The model is functional-timing only:
// true LRU, write-allocate, write-back; no coherence (single core).
#pragma once

#include <algorithm>
#include <cstddef>
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

  /// The one-line case of access_range(): `words` >= 1 consecutive word
  /// accesses from the word holding byte address `addr`, all within its
  /// line. Only the first can miss, so the result is the first access's.
  CacheAccessResult access_run(std::uint64_t addr, std::uint64_t words,
                               bool is_write) {
    CacheAccessResult r;
    access_range(addr & ~std::uint64_t{7}, words, is_write,
                 [&r](std::uint64_t, bool writeback) {
                   r = CacheAccessResult{false, writeback};
                 });
    return r;
  }

  /// Performs `words` >= 1 word accesses to consecutive words from byte
  /// address `addr` (a multiple of 8), exactly as `words` access() calls
  /// would. The range is walked one line piece at a time: the words of a
  /// piece are accessed back to back, so only the piece's first access
  /// can miss; it leaves the line resident and the rest hit it, and the
  /// line's use stamp is the piece's last access's tick. For each piece
  /// whose first access misses, calls on_miss(words_before, writeback)
  /// in line order, with `words_before` the range's accesses made before
  /// that piece and `writeback` whether a dirty victim was evicted.
  /// Statistics are updated when the range is done.
  template <class OnMiss>
  void access_range(std::uint64_t addr, std::uint64_t words, bool is_write,
                    OnMiss&& on_miss) {
    const std::uint32_t ways = config_.ways;
    const std::uint64_t line_mask = config_.line_bytes - 1;
    std::uint64_t* const tags_base = tags_.data();
    std::uint64_t* const stamps_base = stamps_.data();
    std::uint8_t* const dirty_base = dirty_.data();
    std::uint64_t tick = tick_;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
    const std::uint64_t end = addr + words * 8;
    for (std::uint64_t a = addr; a < end;) {
      const std::uint64_t next = std::min(end, (a | line_mask) + 1);
      const std::uint64_t piece = (next - a) >> 3;
      tick += piece;
      const std::uint64_t line_addr = a >> line_shift_;
      const std::uint64_t set = line_addr & (sets_ - 1);
      const std::uint64_t tag = line_addr >> set_shift_;
      const std::size_t first = set * ways;
      std::uint64_t* const tags = tags_base + first;
      std::uint64_t* const stamps = stamps_base + first;
      std::uint8_t* const dirty = dirty_base + first;

      // Both scans are selects, not branches: which way hits, and which
      // way is oldest, is data-dependent and unpredictable.
      std::uint32_t hit = ways;
      for (std::uint32_t w = 0; w < ways; ++w)
        hit = tags[w] == tag ? w : hit;
      if (hit != ways) {
        stamps[hit] = tick;
        dirty[hit] |= static_cast<std::uint8_t>(is_write);
      } else {
        // Miss: the first invalid way, else the least recently used
        // one. Invalid ways hold stamp 0 and valid ones distinct stamps
        // >= 1, so both are the first way with the smallest stamp.
        ++misses;
        std::uint32_t victim = 0;
        for (std::uint32_t w = 1; w < ways; ++w)
          victim = stamps[w] < stamps[victim] ? w : victim;
        const bool writeback = dirty[victim] != 0;
        writebacks += writeback;
        tags[victim] = tag;
        stamps[victim] = tick;
        dirty[victim] = static_cast<std::uint8_t>(is_write);  // allocate
        on_miss(words - ((end - a) >> 3), writeback);
      }
      a = next;
    }
    tick_ = tick;
    (is_write ? stats_.writes : stats_.reads) += words;
    (is_write ? stats_.write_misses : stats_.read_misses) += misses;
    stats_.writebacks += writebacks;
  }

  /// Invalidates everything and clears statistics.
  void reset();

 private:
  /// Tag of an invalid way. Real tags are addresses shifted right by at
  /// least three bits, so they never reach it.
  static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};

  CacheConfig config_;
  CacheStats stats_;
  // Per way, sets * ways entries row-major by set. An invalid way has
  // tag kInvalidTag, stamp 0 and is clean.
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> stamps_;  ///< Monotonic use stamps.
  std::vector<std::uint8_t> dirty_;
  // Line size and set count are powers of two, so an address splits
  // into line, set and tag by shift and mask.
  std::uint32_t sets_ = 0;
  std::uint32_t line_shift_ = 0;  ///< log2(line_bytes).
  std::uint32_t set_shift_ = 0;   ///< log2(sets_).
  std::uint64_t tick_ = 0;
};

}  // namespace ftspm
