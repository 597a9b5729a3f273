// The YCSB-style load injector behind `ftspm_tool load`.
//
// A load run drives N concurrent client connections at the daemon,
// each submitting campaigns drawn from a weighted mix of named request
// classes. Arrival is closed-loop by default (submit, wait for the
// result, submit again — classic think-time-zero YCSB) or open-loop at
// a fixed per-connection rate (submissions stay on schedule even when
// responses lag, so queue growth and `overloaded` shedding become
// visible). End-to-end latency (submit → result/error) is recorded
// per class into obs::Histogram and reported as p50/p95/p99.
//
// Determinism note: latencies are wall-clock and therefore
// nondeterministic, but the *campaign counters* each request produces
// are not — they depend only on the spec. The injector's RNG (class
// picks, id salts) is seeded from LoadConfig::seed per connection, so
// the submitted request sequence is reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ftspm/obs/metrics.h"
#include "ftspm/serve/campaign_spec.h"

namespace ftspm::serve {

/// One named slice of the request mix.
struct RequestClass {
  std::string name;
  /// Relative pick weight; 0 keeps the class in the report with an
  /// empty histogram (quantiles report the documented 0.0 sentinel).
  double weight = 1.0;
  CampaignSpec spec;
  std::uint32_t priority = 0;
};

struct LoadConfig {
  /// Unix socket path, or (when tcp_port != 0) a 127.0.0.1 TCP port.
  std::string socket_path;
  std::uint16_t tcp_port = 0;
  std::vector<RequestClass> classes;
  std::uint32_t connections = 2;
  /// Total requests across all connections.
  std::uint64_t requests = 16;
  /// Open-loop arrival rate per connection (requests/sec); 0 = closed
  /// loop.
  double rate = 0.0;
  /// Seeds the per-connection mix RNG (connection i uses seed ^ i
  /// streams, so mixes differ across connections but reproduce run to
  /// run).
  std::uint64_t seed = 1;
};

/// Per-class outcome tally + end-to-end latency histogram.
struct ClassStats {
  std::string name;
  double weight = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t errors = 0;
  obs::Histogram latency_ms;

  ClassStats();
};

struct LoadReport {
  std::vector<ClassStats> classes;
  double wall_ms = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t errors = 0;

  /// Fraction of sent requests the daemon shed with error(overloaded);
  /// 0 when nothing was sent. The `load --fail-on-shed` gate and the
  /// saturation sweep both read this.
  double shed_rate() const {
    return sent != 0 ? static_cast<double>(overloaded) /
                           static_cast<double>(sent)
                     : 0.0;
  }

  /// Machine-readable report: aggregate counts (with shed_rate) plus
  /// per-class counts and p50/p95/p99/mean/max latency (ms).
  std::string to_json() const;
  /// CSV with the pinned header
  /// "class,weight,sent,completed,overloaded,cancelled,errors,
  /// shed_rate,p50_ms,p95_ms,p99_ms,mean_ms,max_ms".
  std::string to_csv() const;
};

/// The latency bucket bounds (ms) every per-class histogram and the
/// daemon's queue-wait and service-time histograms use: log-spaced
/// 1-2-5 bounds from 0.01 ms to 5000 ms.
const std::vector<double>& load_latency_bounds();

/// Parses a --mix string: comma-separated "name:weight[:strikes]"
/// entries (e.g. "small:8:20000,large:1:200000"). Throws
/// InvalidArgument on malformed entries.
std::vector<RequestClass> parse_mix(const std::string& text);

/// The built-in mix used by --quick and when --mix is absent.
std::vector<RequestClass> default_mix(bool quick);

/// Runs the load. Blocks until every submitted request resolved (or
/// its connection died). Also folds the per-class histograms into the
/// process registry as load.latency_ms{class=...} when observability
/// is enabled.
LoadReport run_load(const LoadConfig& config);

}  // namespace ftspm::serve
