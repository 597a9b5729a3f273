// The four workloads: set-up, closed-loop timed runs, and the output
// checks that feed `failed`. README.md says why each one exists.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "perfbench.h"

#include "ftspm/core/baseline_mapper.h"
#include "ftspm/core/endurance.h"
#include "ftspm/core/mapping_determiner.h"
#include "ftspm/core/system_campaign.h"
#include "ftspm/core/systems.h"
#include "ftspm/profile/profiler.h"
#include "ftspm/serve/client.h"
#include "ftspm/serve/protocol.h"
#include "ftspm/serve/server.h"
#include "ftspm/sim/simulator.h"
#include "ftspm/workload/suite.h"

namespace perfbench {

namespace {

using ftspm::serve::CampaignOutcome;
using ftspm::serve::CampaignRunHooks;
using ftspm::serve::CampaignSpec;

/// What one timed loop measured.
struct LoopStats {
  std::vector<double> latency_s;  ///< One sample per completed operation.
  std::uint64_t strikes = 0;
  double elapsed_s = 0.0;
  std::vector<Tracer> tracers;  ///< One per loop thread.
};

/// An operation result kept for re-running outside the timed window.
struct Sample {
  CampaignSpec spec;
  Counters counters;
};

/// Re-runs `spec` directly through run_campaign_spec with `jobs` and
/// compares the counters: the served path (or another jobs value) must
/// not change them.
void check_direct(const Sample& sample, std::uint32_t jobs, Report& report,
                  const char* what) {
  CampaignRunHooks hooks;
  hooks.jobs = jobs;
  const Counters direct =
      counters_of(sample.spec, ftspm::serve::run_campaign_spec(sample.spec,
                                                               hooks));
  report.check(direct == sample.counters,
               std::string(what) + " seed " +
                   std::to_string(sample.spec.seed) + ": direct " +
                   direct.to_json() + " vs " + sample.counters.to_json());
}

/// The seeds every pinned check covers, with their pinned.json tags.
struct PinnedSeed {
  const char* tag;
  std::uint64_t seed;
};
const PinnedSeed kPinnedSeeds[] = {{"default", default_seed()},
                                   {"heldout", kHeldOutSeed}};

/// The pinned counters of `make(seed)` at every pinned seed.
template <typename MakeSpec>
void check_pinned_seeds(const std::string& name, MakeSpec make,
                        const Pinned& pinned, Report& report) {
  for (const PinnedSeed& p : kPinnedSeeds) {
    const CampaignSpec spec = make(p.seed);
    CampaignRunHooks hooks;
    hooks.jobs = kJobs;
    const Counters got =
        counters_of(spec, ftspm::serve::run_campaign_spec(spec, hooks));
    const std::string key = name + "." + p.tag;
    std::string why;
    report.check(got.outcomes_sum() && pinned.matches(key, got, why),
                 why.empty() ? key + ": outcomes do not sum" : why);
  }
}

/// pinned.json key of one Eq. 1 vulnerability; `structure` indexes
/// evaluate_all's order {FTSPM, Pure SRAM, Pure STT-RAM}.
std::string vulnerability_key(ftspm::MiBenchmark bench,
                              std::size_t structure) {
  static const char* const kStructures[] = {"ftspm", "sram", "stt"};
  return std::string("pipeline.vulnerability.") + ftspm::to_string(bench) +
         "." + kStructures[structure];
}

/// Temporal-campaign counters on the first suite benchmark's FTSPM plan.
Counters first_benchmark_temporal(const ftspm::StructureEvaluator& ev,
                                  std::uint64_t seed) {
  const ftspm::Workload w =
      ftspm::make_benchmark(ftspm::all_benchmarks().front(), 1);
  const ftspm::ProgramProfile profile = ftspm::profile_workload(w);
  const ftspm::SystemResult sys = ev.evaluate_ftspm(w, profile);
  ftspm::CampaignConfig cfg;
  cfg.strikes = kTemporalStrikes;
  cfg.seed = seed;
  return counters_of(ftspm::run_temporal_campaign(
      ev.ftspm_layout(), sys.plan, w.program, profile, ev.strike_model(),
      cfg));
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Everything between process start and the first timed operation.
  virtual void set_up(Report& report) = 0;
  virtual LoopStats run(double seconds, bool traced, Report& report) = 0;
  /// Output checks outside the timed window.
  virtual void verify(Report& report) = 0;
  virtual Kind kind() const { return Kind::Static; }
};

// --- bulk_static / bulk_recovery -------------------------------------

class BulkWorkload final : public Workload {
 public:
  BulkWorkload(const Options& opts, Kind kind, const Pinned& pinned)
      : opts_(opts), kind_(kind), pinned_(pinned),
        strikes_(bulk_strikes(kind, opts.smoke)) {}

  Kind kind() const override { return kind_; }

  void set_up(Report& report) override {
    // A warm-up call a quarter of an operation's size: thread spawn,
    // first-touch pages, fold dispatch.
    run_op(strikes_ / 4, derive_seed(opts_.seed, 1, setups_++), report,
           nullptr);
  }

  LoopStats run(double seconds, bool traced, Report& report) override {
    LoopStats stats;
    Tracer& tracer = stats.tracers.emplace_back(traced);
    const auto start = Clock::now();
    for (std::uint64_t i = 0;; ++i) {
      const auto t0 = Clock::now();
      if (i >= 2 && seconds_between(start, t0) >= seconds) break;
      const auto span = tracer.span("serve.run_campaign_spec", i);
      const Counters got =
          run_op(strikes_, derive_seed(opts_.seed, 2, i), report,
                 samples_.size() < 2 && i % 16 == 0 ? &samples_ : nullptr);
      stats.latency_s.push_back(seconds_between(t0, Clock::now()));
      stats.strikes += got.get("strikes");
    }
    stats.elapsed_s = seconds_between(start, Clock::now());
    return stats;
  }

  void verify(Report& report) override {
    // Jobs 1 must reproduce the jobs-2 counters bit for bit.
    for (const Sample& s : samples_) check_direct(s, 1, report, "bulk jobs 1");
    const Kind kind = kind_;
    check_pinned_seeds(
        kind == Kind::Static ? "static" : "recovery",
        [kind](std::uint64_t seed) {
          return bulk_spec(kind, kCheckStrikes, seed);
        },
        pinned_, report);
  }

 private:
  Counters run_op(std::uint64_t strikes, std::uint64_t seed, Report& report,
                  std::vector<Sample>* keep) {
    const CampaignSpec spec = bulk_spec(kind_, strikes, seed);
    CampaignRunHooks hooks;
    hooks.jobs = kJobs;
    const CampaignOutcome out = ftspm::serve::run_campaign_spec(spec, hooks);
    Counters got = counters_of(spec, out);
    const bool ok = out.complete && got.get("strikes") == spec.strikes &&
                    got.outcomes_sum();
    report.check(ok, ok ? std::string()
                        : "bulk op seed " + std::to_string(seed) + ": " +
                              got.to_json());
    if (keep != nullptr) keep->push_back(Sample{spec, got});
    return got;
  }

  const Options& opts_;
  Kind kind_;
  const Pinned& pinned_;
  std::uint64_t strikes_;
  std::uint64_t setups_ = 0;
  std::vector<Sample> samples_;
};

// --- served_small -----------------------------------------------------

bool result_ok(const ftspm::JsonValue& result, Counters& counters) {
  counters = counters_of(result.at("counters"));
  return result.at("complete").boolean &&
         counters.get("strikes") == kServedStrikes && counters.outcomes_sum();
}

class ServedWorkload final : public Workload {
 public:
  static constexpr int kConnections = 2;
  /// Requests per connection between ledger rotations.
  static constexpr std::uint64_t kRoundRequests = 128;
  /// Warm-up requests per connection in each set-up.
  static constexpr int kWarmRequests = 64;

  ServedWorkload(const Options& opts, const Pinned& pinned)
      : opts_(opts), pinned_(pinned) {
    const std::string stem = opts.scratch_dir + "/served-" +
                             std::to_string(::getpid());
    socket_path_ = stem + ".sock";
    ledger_path_ = stem + "-ledger.jsonl";
  }
  ~ServedWorkload() override {
    tear_down();
    std::remove(ledger_path_.c_str());
  }

  void set_up(Report& report) override {
    tear_down();
    std::remove(ledger_path_.c_str());
    ftspm::serve::ServerConfig cfg;
    cfg.socket_path = socket_path_;
    cfg.jobs = kJobs;
    cfg.ledger_path = ledger_path_;
    server_ = std::make_unique<ftspm::serve::Server>(cfg);
    server_->start();
    for (int c = 0; c < kConnections; ++c) {
      clients_.push_back(ftspm::serve::Client::connect_unix(socket_path_));
      clients_.back().ping();
    }
    Tracer off(false);
    for (int r = 0; r < kWarmRequests; ++r) {
      for (ftspm::serve::Client& client : clients_) {
        Counters counters;
        const RoundTrip rt = round_trip(
            client, served_spec(derive_seed(opts_.seed, 3, setups_++)),
            "warm", 0, off);
        report.check(result_ok(rt.result, counters),
                     "served warm-up request");
      }
    }
  }

  LoopStats run(double seconds, bool traced, Report& report) override {
    struct Lane {
      std::vector<double> latency_s;
      std::vector<Sample> samples;
      Report tally;
      std::optional<Tracer> tracer;
      bool broken = false;
    };
    std::vector<Lane> lanes(kConnections);
    for (Lane& lane : lanes) lane.tracer.emplace(traced);
    const std::uint64_t stream = 10 + 2 * static_cast<std::uint64_t>(runs_++);
    const auto start = Clock::now();
    const auto more = [&](std::uint64_t i) {
      return i < 2 || seconds_between(start, Clock::now()) < seconds;
    };
    // Rounds of kRoundRequests per connection, each from an empty
    // ledger: the daemon scans the whole ledger before every append, so
    // a request's cost grows with the ledger's length. Rotating it
    // keeps runs of any length comparable.
    for (std::uint64_t first = 0; more(first); first += kRoundRequests) {
      std::remove(ledger_path_.c_str());
      const std::uint64_t before = server_->status().completed;
      std::vector<std::thread> threads;
      for (int c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c, first] {
          Lane& lane = lanes[static_cast<std::size_t>(c)];
          ftspm::serve::Client& client =
              clients_[static_cast<std::size_t>(c)];
          try {
            for (std::uint64_t i = first; i < first + kRoundRequests && more(i);
                 ++i) {
              const CampaignSpec spec = served_spec(derive_seed(
                  opts_.seed, stream + static_cast<std::uint64_t>(c), i));
              const std::uint64_t request =
                  (static_cast<std::uint64_t>(c) << 40) | i;
              const std::string id = std::to_string(request);
              const RoundTrip rt =
                  round_trip(client, spec, id, request, *lane.tracer);
              Counters counters;
              const bool ok = result_ok(rt.result, counters);
              if (lane.tally.check(ok, ok ? std::string()
                                          : "served result " + id + ": " +
                                                rt.result.dump()))
                lane.latency_s.push_back(rt.total_s);
              if (i % 256 == 0) lane.samples.push_back(Sample{spec, counters});
            }
          } catch (const std::exception& e) {
            lane.broken = true;
            lane.tally.check(false, std::string("served connection: ") +
                                        e.what());
          }
        });
      }
      for (std::thread& t : threads) t.join();
      // Every request of the round left exactly one ledger line.
      std::ifstream in(ledger_path_, std::ios::binary);
      const auto lines = static_cast<std::uint64_t>(
          std::count(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>(), '\n'));
      const std::uint64_t completed = server_->status().completed - before;
      report.check(lines == completed,
                   "served ledger has " + std::to_string(lines) +
                       " lines for " + std::to_string(completed) +
                       " completed requests");
      if (std::any_of(lanes.begin(), lanes.end(),
                      [](const Lane& lane) { return lane.broken; }))
        break;
    }

    LoopStats stats;
    stats.elapsed_s = seconds_between(start, Clock::now());
    for (Lane& lane : lanes) {
      stats.latency_s.insert(stats.latency_s.end(), lane.latency_s.begin(),
                             lane.latency_s.end());
      stats.strikes += lane.latency_s.size() * kServedStrikes;
      samples_.insert(samples_.end(), lane.samples.begin(),
                      lane.samples.end());
      report.merge_tally(lane.tally.attempted(), lane.tally.failed(),
                         lane.tally.failures());
      stats.tracers.push_back(std::move(*lane.tracer));
    }
    return stats;
  }

  void verify(Report& report) override {
    for (const Sample& s : samples_) check_direct(s, 1, report, "served");
    check_pinned_seeds("served", served_spec, pinned_, report);
    const ftspm::serve::ServerStatus status = server_->status();
    report.check(status.failed == 0 && status.rejected_overload == 0,
                 "daemon reports " + std::to_string(status.failed) +
                     " failed and " +
                     std::to_string(status.rejected_overload) +
                     " shed requests");
  }

 private:
  void tear_down() {
    clients_.clear();
    if (server_) {
      server_->request_stop();
      server_->wait();
      server_.reset();
    }
  }

  const Options& opts_;
  const Pinned& pinned_;
  std::string socket_path_;
  std::string ledger_path_;
  std::unique_ptr<ftspm::serve::Server> server_;
  std::vector<ftspm::serve::Client> clients_;
  std::uint64_t setups_ = 0;
  int runs_ = 0;
  std::vector<Sample> samples_;
};

// --- paper_pipeline ---------------------------------------------------

class PipelineWorkload final : public Workload {
 public:
  PipelineWorkload(const Options& opts, const Pinned& pinned)
      : opts_(opts), pinned_(pinned) {}

  void set_up(Report& report) override {
    evaluator_.emplace();
    // Warm-up: a reduced-scale pass touches every code path once.
    Tracer off(false);
    const PassResult warm = pipeline_pass(*evaluator_, 4, 50'000,
                                          derive_seed(opts_.seed, 4, 0), off);
    report.check(warm.temporal_complete, "pipeline warm-up pass");
  }

  LoopStats run(double seconds, bool traced, Report& report) override {
    LoopStats stats;
    Tracer& tracer = stats.tracers.emplace_back(traced);
    const std::uint64_t temporal = opts_.smoke ? 20'000 : kTemporalStrikes;
    const auto start = Clock::now();
    for (std::uint64_t i = 0;; ++i) {
      const auto t0 = Clock::now();
      if (i >= 2 && seconds_between(start, t0) >= seconds) break;
      const PassResult pass = pipeline_pass(
          *evaluator_, 1, temporal, derive_seed(opts_.seed, 5, i), tracer);
      stats.latency_s.push_back(seconds_between(t0, Clock::now()));
      stats.strikes += pass.temporal_strikes;
      std::string why;
      report.check(pass.temporal_complete && pass_matches(pass, pinned_, why),
                   why.empty() ? "pipeline temporal campaign ran short"
                               : why);
    }
    stats.elapsed_s = seconds_between(start, Clock::now());
    return stats;
  }

  void verify(Report& report) override {
    for (const PinnedSeed& p : kPinnedSeeds) {
      std::string why;
      report.check(
          pinned_.matches(std::string("temporal.") + p.tag,
                          first_benchmark_temporal(*evaluator_, p.seed), why),
          why);
    }
  }

 private:
  const Options& opts_;
  const Pinned& pinned_;
  std::optional<ftspm::StructureEvaluator> evaluator_;
};

std::unique_ptr<Workload> make_workload(const Options& opts,
                                        const Pinned& pinned) {
  if (opts.workload == "bulk_static")
    return std::make_unique<BulkWorkload>(opts, Kind::Static, pinned);
  if (opts.workload == "bulk_recovery")
    return std::make_unique<BulkWorkload>(opts, Kind::Recovery, pinned);
  if (opts.workload == "served_small")
    return std::make_unique<ServedWorkload>(opts, pinned);
  if (opts.workload == "paper_pipeline")
    return std::make_unique<PipelineWorkload>(opts, pinned);
  throw std::invalid_argument("unknown workload '" + opts.workload + "'");
}

void write_spans(const Options& opts, const std::vector<Tracer>& tracers) {
  ftspm::JsonWriter w;
  w.begin_object().begin_array("traceEvents");
  for (std::size_t i = 0; i < tracers.size(); ++i)
    tracers[i].write_events(w, static_cast<int>(i));
  w.end_array().end_object();
  const std::string path =
      opts.scratch_dir + "/spans-" + opts.workload + ".json";
  std::ofstream out(path, std::ios::binary);
  out << w.str() << '\n';
  std::cout << "spans: " << path << '\n';
}

}  // namespace

RoundTrip round_trip(ftspm::serve::Client& client, const CampaignSpec& spec,
                     const std::string& id, std::uint64_t request,
                     Tracer& tracer) {
  RoundTrip rt;
  const auto t0 = Clock::now();
  {
    const auto span = tracer.span("serve.submit", request);
    client.submit(spec, id);
  }
  const auto t1 = Clock::now();
  {
    const auto span = tracer.span("serve.await_result", request);
    while (true) {
      ftspm::JsonValue frame = client.next_frame();
      const std::string& type = frame.at("type").string;
      if (type == "heartbeat") continue;
      if (type != "result")
        throw std::runtime_error("request " + id + " answered '" + type +
                                 "': " + frame.dump());
      rt.result = std::move(frame);
      break;
    }
  }
  const auto t2 = Clock::now();
  rt.accept_s = seconds_between(t0, t1);
  rt.total_s = seconds_between(t0, t2);
  return rt;
}

PassResult pipeline_pass(const ftspm::StructureEvaluator& ev,
                         std::uint64_t scale, std::uint64_t temporal_strikes,
                         std::uint64_t seed, Tracer& tracer) {
  PassResult out;
  const auto pass_span = tracer.span("pipeline.pass");
  for (const ftspm::MiBenchmark bench : ftspm::all_benchmarks()) {
    std::optional<ftspm::Workload> w;
    {
      const auto span = tracer.span("workload.gen");
      w.emplace(ftspm::make_benchmark(bench, scale));
    }
    std::optional<ftspm::ProgramProfile> profile;
    {
      const auto span = tracer.span("profile");
      profile.emplace(ftspm::profile_workload(*w));
    }
    const ftspm::SpmLayout* layouts[3] = {&ev.ftspm_layout(),
                                          &ev.pure_sram_layout(),
                                          &ev.pure_stt_layout()};
    std::vector<ftspm::MappingPlan> plans;
    {
      const auto span = tracer.span("core.map");
      const ftspm::MappingDeterminer mda(ev.ftspm_layout(), ev.sim_config());
      plans.push_back(mda.determine(w->program, *profile));
      plans.push_back(ftspm::determine_baseline_mapping(
          ev.pure_sram_layout(), w->program, *profile));
      plans.push_back(ftspm::determine_baseline_mapping(
          ev.pure_stt_layout(), w->program, *profile));
    }
    std::vector<ftspm::RunResult> runs;
    {
      const auto span = tracer.span("sim");
      for (std::size_t s = 0; s < 3; ++s) {
        const ftspm::Simulator simulator(*layouts[s], ev.sim_config());
        runs.push_back(simulator.run(*w, plans[s].block_to_region()));
      }
    }
    {
      const auto span = tracer.span("core.avf");
      for (std::size_t s = 0; s < 3; ++s) {
        const ftspm::AvfResult avf = ftspm::compute_system_avf(
            *layouts[s], plans[s], w->program, *profile, ev.strike_model());
        [[maybe_unused]] const ftspm::EnduranceReport endurance =
            ftspm::compute_endurance(*layouts[s], runs[s]);
        out.vulnerabilities.emplace_back(vulnerability_key(bench, s),
                                         avf.vulnerability());
        out.simulated_cycles += runs[s].total_cycles;
      }
    }
    out.simulated_accesses += 3 * w->total_accesses();
    {
      const auto span = tracer.span("core.temporal");
      ftspm::CampaignConfig cfg;
      cfg.strikes = temporal_strikes;
      cfg.seed = seed;
      const ftspm::CampaignResult r = ftspm::run_temporal_campaign(
          ev.ftspm_layout(), plans[0], w->program, *profile,
          ev.strike_model(), cfg);
      out.temporal_strikes += r.strikes;
      out.temporal_complete = out.temporal_complete &&
                              r.strikes == temporal_strikes &&
                              r.masked + r.dre + r.due + r.sdc == r.strikes;
    }
  }
  return out;
}

bool pass_matches(const PassResult& pass, const Pinned& pinned,
                  std::string& why) {
  if (!pinned.matches("pipeline.simulated_cycles",
                      static_cast<double>(pass.simulated_cycles), why))
    return false;
  for (const auto& [name, value] : pass.vulnerabilities)
    if (!pinned.matches(name, value, why)) return false;
  return true;
}

void run_benchmark(const Options& opts, const Pinned& pinned,
                   Report& report) {
  std::unique_ptr<Workload> workload = make_workload(opts, pinned);

  // Set-up runs several times; the median is the reported set-up time.
  std::vector<double> setups;
  for (int rep = 0; rep < (opts.smoke ? 2 : 7); ++rep) {
    const auto t0 = Clock::now();
    workload->set_up(report);
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  if (!opts.trace) {
    const LoopStats s = workload->run(opts.seconds, false, report);
    workload->verify(report);
    const auto ops = static_cast<double>(s.latency_s.size());
    report.add("setup_s", median(setups), "s");
    report.add("strikes_per_s", static_cast<double>(s.strikes) / s.elapsed_s,
               "strikes/s");
    report.add("requests_per_s", ops / s.elapsed_s, "req/s");
    report.add("latency_p50_ms", quantile(s.latency_s, 0.50) * 1e3, "ms");
    // p95 carries the bound: from about p97 up, a virtual machine's
    // wake-up latency dominates served requests and the tail moves by
    // 25-50% between runs. p99 is printed, not bounded.
    report.add("latency_p95_ms", quantile(s.latency_s, 0.95) * 1e3, "ms");
    report.add("pipeline_s", mean(s.latency_s), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    std::cout << "latency samples: " << s.latency_s.size() << ", p99 "
              << quantile(s.latency_s, 0.99) * 1e3 << " ms with "
              << static_cast<std::uint64_t>(ops * 0.01)
              << " samples above it\n";
    return;
  }

  // Traced run: the loop in quarters, untraced-traced-traced-untraced so
  // a steady drift of the host's speed cancels out of the overhead; then
  // the ladder.
  std::vector<double> plain, traced;
  std::vector<Tracer> tracers;
  for (const bool on : {false, true, true, false}) {
    LoopStats s = workload->run(opts.seconds / 4, on, report);
    std::vector<double>& into = on ? traced : plain;
    into.insert(into.end(), s.latency_s.begin(), s.latency_s.end());
    if (on)
      std::move(s.tracers.begin(), s.tracers.end(),
                std::back_inserter(tracers));
  }
  Tracer& ladder_tracer = tracers.emplace_back(true);
  run_ladder(opts, workload->kind(), pinned, report, ladder_tracer);
  workload->verify(report);
  const double plain_ms = mean(plain) * 1e3;
  const double traced_ms = mean(traced) * 1e3;
  std::cout << "tracing overhead: " << plain_ms << " ms/op untraced, "
            << traced_ms << " ms/op traced\n";
  report.add("trace.overhead_pct", (traced_ms - plain_ms) / plain_ms * 100.0,
             "%");
  write_spans(opts, tracers);
}

void print_pinned() {
  ftspm::JsonWriter w;
  w.begin_object();
  const auto counters = [&](const std::string& name, const CampaignSpec& spec,
                            std::uint32_t jobs) {
    CampaignRunHooks hooks;
    hooks.jobs = jobs;
    const Counters c =
        counters_of(spec, ftspm::serve::run_campaign_spec(spec, hooks));
    w.raw_field(name, c.to_json());
  };
  const ftspm::StructureEvaluator ev;
  for (const PinnedSeed& p : kPinnedSeeds) {
    // Jobs 1 here: the checks run jobs 2, so the pins also hold the
    // jobs-invariance contract.
    counters(std::string("static.") + p.tag,
             static_spec(kCheckStrikes, p.seed), 1);
    counters(std::string("recovery.") + p.tag,
             recovery_spec(kCheckStrikes, p.seed), 1);
    counters(std::string("served.") + p.tag, served_spec(p.seed), 1);
    w.raw_field(std::string("temporal.") + p.tag,
                first_benchmark_temporal(ev, p.seed).to_json());
  }
  w.raw_field("ladder.recovery",
              serial_recovery(kLadderRecoveryStrikes, default_seed())
                  .to_json());

  // The pipeline through the library's own evaluate_all, so the
  // benchmark's layer-by-layer pass is checked against it.
  std::uint64_t cycles = 0;
  for (const ftspm::MiBenchmark bench : ftspm::all_benchmarks()) {
    const std::vector<ftspm::SystemResult> results =
        ev.evaluate_all(ftspm::make_benchmark(bench, 1));
    for (std::size_t s = 0; s < 3; ++s) {
      cycles += results[s].run.total_cycles;
      w.field(vulnerability_key(bench, s), results[s].avf.vulnerability());
    }
  }
  w.field("pipeline.simulated_cycles", cycles);
  w.end_object();
  std::cout << w.str() << '\n';
}

}  // namespace perfbench
