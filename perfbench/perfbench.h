// Shared pieces of the repository benchmark: options, the result
// report, in-memory spans, sample statistics, and the campaign specs
// every workload derives its inputs from. See README.md.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "ftspm/serve/campaign_spec.h"
#include "ftspm/util/json.h"

namespace ftspm {
class StructureEvaluator;
}
namespace ftspm::serve {
class Client;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the smoke tests; output checks stay full size.
  bool smoke = false;
  std::string pinned_path;
  /// Directory for the daemon socket and temporary ledgers. Kept
  /// relative to the working directory so the socket path stays short.
  std::string scratch_dir = ".";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

/// Metrics plus the tally of attempted and failed operations. Every
/// output check and every timed operation goes through check().
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void add(const std::string& name, double value, const std::string& unit);
  /// Counts one attempted operation; a false `ok` counts it as failed
  /// and keeps `what` for the human report.
  bool check(bool ok, const std::string& what);
  /// Folds a tally made on another thread into this one.
  void merge_tally(std::uint64_t attempted, std::uint64_t failed,
                   const std::vector<std::string>& failures);

  const std::vector<Metric>& metrics() const noexcept { return metrics_; }
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// One timed interval around a call into a layer. Spans of one served
/// request share `request`; `parent` indexes the enclosing span of the
/// same Tracer (-1 at top level).
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;

  double ms() const noexcept {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }
};

/// Per-thread in-memory span recorder. A disabled tracer records
/// nothing, so the untraced path pays one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_ = -1;
  };

  Scope span(const char* name, std::uint64_t request = 0) {
    return Scope(*this, name, request);
  }
  bool enabled() const noexcept { return enabled_; }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Appends the spans as Chrome trace events (one thread lane).
  void write_events(ftspm::JsonWriter& w, int tid) const;

 private:
  bool enabled_;
  std::int32_t open_ = -1;
  std::vector<Span> spans_;
};

/// Nanoseconds since the first call in this process.
std::uint64_t now_ns();

/// Linear-interpolated quantile of `values` (q in [0,1]), as
/// Python's statistics.quantiles(method="inclusive") computes it.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Per-operation seed stream: a pure function of the run seed, a
/// stream tag and the operation index, kept below 2^53 so it survives
/// the wire protocol's JSON numbers.
std::uint64_t derive_seed(std::uint64_t run_seed, std::uint64_t stream,
                          std::uint64_t index);

/// Peak resident set of this process, in MB.
double peak_rss_mb();

// --- The campaign specs the workloads run -------------------------------

enum class Kind { Static, Recovery };

/// Strikes of one bulk operation of each kind: about 20 ms of work,
/// so the per-call fixed cost (a private pool spawn) stays near 1% and
/// a run still holds enough calls for a p99 with ten samples above it.
std::uint64_t bulk_strikes(Kind kind, bool smoke);
/// The default SEC-DED 8 KB spec, shards 4 (bulk_static).
ftspm::serve::CampaignSpec static_spec(std::uint64_t strikes,
                                       std::uint64_t seed);
/// The live-array recovery spec, shards 4 (bulk_recovery).
ftspm::serve::CampaignSpec recovery_spec(std::uint64_t strikes,
                                         std::uint64_t seed);
ftspm::serve::CampaignSpec bulk_spec(Kind kind, std::uint64_t strikes,
                                     std::uint64_t seed);
/// The small served request: 2k strikes, static SEC-DED, one shard.
ftspm::serve::CampaignSpec served_spec(std::uint64_t seed);
inline constexpr std::uint64_t kServedStrikes = 2000;
/// Jobs of the bulk workloads and of every pool the benchmark owns.
inline constexpr std::uint32_t kJobs = 2;

/// The counters a campaign result carries, in ledger order.
struct Counters {
  std::vector<std::pair<std::string, std::uint64_t>> values;

  std::uint64_t get(const std::string& name) const;
  bool operator==(const Counters& other) const {
    return values == other.values;
  }
  /// masked + dre + due + sdc == strikes.
  bool outcomes_sum() const;
  std::string to_json() const;
};
Counters counters_of(const ftspm::serve::CampaignSpec& spec,
                     const ftspm::serve::CampaignOutcome& outcome);
Counters counters_of(const ftspm::JsonValue& counters_object);
Counters counters_of(const ftspm::CampaignResult& result);

/// The pinned reference values (pinned.json), keyed by check name.
class Pinned {
 public:
  explicit Pinned(const std::string& path);
  /// Compares `got` with the pinned counters `name`; a missing entry
  /// is a mismatch.
  bool matches(const std::string& name, const Counters& got,
               std::string& why) const;
  bool matches(const std::string& name, double got, std::string& why) const;

 private:
  ftspm::JsonValue root_;
};

/// The seed run_campaign_spec falls back to, and the held-out seed
/// the pinned checks also cover.
std::uint64_t default_seed();
inline constexpr std::uint64_t kHeldOutSeed = 0x2d5f1e9b07ULL;
/// Strikes of the pinned bulk checks.
inline constexpr std::uint64_t kCheckStrikes = 1'000'000;

/// One served request, timed around the serve::Client calls.
struct RoundTrip {
  ftspm::JsonValue result;  ///< The result frame.
  double accept_s = 0.0;    ///< submit -> accepted.
  double total_s = 0.0;     ///< submit -> result.
};

/// Submits `spec` and reads frames until its result; throws on any
/// other terminal frame. Spans "serve.submit" and "serve.await_result"
/// carry `request`.
RoundTrip round_trip(ftspm::serve::Client& client,
                     const ftspm::serve::CampaignSpec& spec,
                     const std::string& id, std::uint64_t request,
                     Tracer& tracer);

/// The serial live-array recovery campaign of the bulk_recovery spec,
/// as its ledger counters (the ladder's recovery rung and its pins).
Counters serial_recovery(std::uint64_t strikes, std::uint64_t seed);
/// Strikes of that rung; fixed so its counters repeat exactly.
inline constexpr std::uint64_t kLadderRecoveryStrikes = 500'000;

// --- The paper pipeline --------------------------------------------------

/// Temporal-campaign strikes per benchmark in one pipeline pass.
inline constexpr std::uint64_t kTemporalStrikes = 200'000;

/// What one 12-benchmark pass produced, for the output checks.
struct PassResult {
  /// Simulated cycles summed over benchmarks and structures.
  std::uint64_t simulated_cycles = 0;
  /// Simulated word accesses (trace accesses x three structures).
  std::uint64_t simulated_accesses = 0;
  /// "pipeline.vulnerability.<benchmark>.<structure>" -> Eq. 1 value.
  std::vector<std::pair<std::string, double>> vulnerabilities;
  std::uint64_t temporal_strikes = 0;
  /// Every temporal campaign ran all its strikes and its outcomes sum.
  bool temporal_complete = true;
};

/// One pass of the paper's evaluation: for every suite benchmark,
/// make_benchmark -> profile_workload -> MDA and both baseline
/// mappings -> Simulator::run on the three structures ->
/// compute_system_avf/compute_endurance -> run_temporal_campaign on the
/// FTSPM plan. Each layer call is wrapped in a span of `tracer`.
PassResult pipeline_pass(const ftspm::StructureEvaluator& evaluator,
                         std::uint64_t scale, std::uint64_t temporal_strikes,
                         std::uint64_t seed, Tracer& tracer);

/// Cycles and vulnerabilities of a scale-1 pass against pinned.json.
bool pass_matches(const PassResult& pass, const Pinned& pinned,
                  std::string& why);

// --- Entry points --------------------------------------------------------

/// Set-up, timed loop and output checks of opts.workload; with
/// opts.trace also the traced loop and the layer ladder. Fills `report`
/// with the end-to-end or per-layer metrics.
void run_benchmark(const Options& opts, const Pinned& pinned, Report& report);

/// The per-layer rungs (ladder.cpp). `kind` picks the campaign kind of
/// the exec and spec rungs: the workload's own, static by default.
void run_ladder(const Options& opts, Kind kind, const Pinned& pinned,
                Report& report, Tracer& tracer);

/// Prints the JSON of every value pinned.json holds, computed through
/// the library's own entry points (StructureEvaluator::evaluate_all).
void print_pinned();

}  // namespace perfbench
