#include "ftspm/sim/cache.h"

#include <bit>

#include "ftspm/util/error.h"

namespace ftspm {

Cache::Cache(CacheConfig config) : config_(config) {
  FTSPM_REQUIRE(config_.line_bytes >= 8 &&
                    std::has_single_bit(config_.line_bytes),
                "line size must be a power of two >= 8");
  FTSPM_REQUIRE(config_.ways >= 1, "cache needs at least one way");
  FTSPM_REQUIRE(config_.size_bytes % (config_.line_bytes * config_.ways) == 0,
                "cache size must divide evenly into sets");
  sets_ = config_.size_bytes / (config_.line_bytes * config_.ways);
  FTSPM_REQUIRE(std::has_single_bit(sets_), "set count must be a power of 2");
  line_shift_ =
      static_cast<std::uint32_t>(std::countr_zero(config_.line_bytes));
  set_shift_ = static_cast<std::uint32_t>(std::countr_zero(sets_));
  reset();
}

void Cache::reset() {
  const std::size_t n = static_cast<std::size_t>(sets_) * config_.ways;
  tags_.assign(n, kInvalidTag);
  stamps_.assign(n, 0);
  dirty_.assign(n, 0);
  stats_ = CacheStats{};
  tick_ = 0;
}

}  // namespace ftspm
