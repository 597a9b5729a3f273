#include "ftspm/profile/reuse.h"

#include <bit>
#include <list>
#include <unordered_map>

#include "ftspm/util/error.h"

namespace ftspm {

double ReuseProfile::hit_rate_estimate(std::uint64_t cache_lines) const {
  FTSPM_REQUIRE(cache_lines > 0, "cache must have at least one line");
  if (total_accesses == 0) return 0.0;
  std::uint64_t hits = 0;
  // Bucket k spans [2^k, 2^(k+1)); it is fully under `cache_lines` when
  // 2^(k+1) <= cache_lines. Partial buckets are credited by midpoint.
  for (std::size_t k = 0; k + 1 < kBuckets; ++k) {
    const std::uint64_t lo = k == 0 ? 0 : (1ULL << k);
    const std::uint64_t hi = 1ULL << (k + 1);
    if (hi <= cache_lines) {
      hits += histogram[k];
    } else if (lo < cache_lines) {
      hits += histogram[k] / 2;  // straddling bucket: midpoint credit
    }
  }
  return static_cast<double>(hits) / static_cast<double>(total_accesses);
}

double ReuseProfile::mean_finite_distance() const {
  std::uint64_t n = 0;
  double weighted = 0.0;
  for (std::size_t k = 0; k + 1 < kBuckets; ++k) {
    const double mid = k == 0 ? 1.0 : 1.5 * static_cast<double>(1ULL << k);
    weighted += mid * static_cast<double>(histogram[k]);
    n += histogram[k];
  }
  return n ? weighted / static_cast<double>(n) : 0.0;
}

ReuseProfile compute_reuse_profile(const Workload& workload, ReuseScope scope,
                                   std::uint32_t line_bytes,
                                   std::size_t horizon_lines) {
  FTSPM_REQUIRE(line_bytes >= 8 && std::has_single_bit(line_bytes),
                "line size must be a power of two >= 8");
  FTSPM_REQUIRE(horizon_lines >= 2, "horizon too small");

  ReuseProfile profile;
  profile.line_bytes = line_bytes;

  // LRU stack of line ids; front = most recently used. O(d) per access
  // (d = reuse distance, clipped at the horizon), which is fine for the
  // analysis-scale traces this is meant for.
  std::list<std::uint64_t> stack;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> pos;

  auto touch = [&](std::uint64_t line) {
    ++profile.total_accesses;
    auto it = pos.find(line);
    if (it == pos.end()) {
      profile.histogram.back()++;  // cold
    } else {
      std::size_t distance = 0;
      for (auto walk = stack.begin(); walk != it->second; ++walk) ++distance;
      const std::size_t bucket =
          distance <= 1
              ? 0
              : std::min<std::size_t>(ReuseProfile::kBuckets - 2,
                                      static_cast<std::size_t>(
                                          std::bit_width(distance) - 1));
      profile.histogram[bucket]++;
      stack.erase(it->second);
    }
    stack.push_front(line);
    pos[line] = stack.begin();
    if (stack.size() > horizon_lines) {
      pos.erase(stack.back());
      stack.pop_back();
    }
  };

  // One walk: each event is validated (exactly as validate_trace would,
  // so a malformed trace throws the same error at the same event), then
  // profiled if it is in scope.
  TraceChecker checker(workload.program);
  const bool want_code = scope == ReuseScope::Instructions;
  const Trace& trace = workload.trace;
  for (std::size_t k = 0; k < trace.chunk_count(); ++k) {
    for (const TraceEvent& e : trace.chunk(k)) {
      checker.check(e);
      if (e.is_marker()) continue;
      const bool is_fetch = e.type == AccessType::Fetch;
      if (is_fetch != want_code) continue;
      const std::uint64_t base = workload.program.base_address(e.block);
      // Every word after the first of a line piece re-touches the line
      // just touched: distance 0, stack unchanged.
      WordRun(e.offset, e.repeat,
              workload.program.block(e.block).size_words())
          .for_each_line(base, line_bytes,
                         [&](std::uint64_t addr, std::uint64_t words) {
                           touch(addr / line_bytes);
                           profile.total_accesses += words - 1;
                           profile.histogram[0] += words - 1;
                         });
    }
  }
  checker.finish();
  return profile;
}

}  // namespace ftspm
