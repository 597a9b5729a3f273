// The layer ladder of the traced run: each rung times one public call
// of one layer, wrapped in a span, from the bottom of the campaign
// stack (the ECC fold) to a socket round trip, plus one traced pass of
// the paper pipeline. README.md lists which end-to-end metric each
// rung should move.
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <iostream>
#include <map>

#include "perfbench.h"

#include "ftspm/core/system_campaign.h"
#include "ftspm/core/systems.h"
#include "ftspm/ecc/secded_codec.h"
#include "ftspm/exec/parallel_campaign.h"
#include "ftspm/exec/thread_pool.h"
#include "ftspm/fault/recovery.h"
#include "ftspm/mem/technology_library.h"
#include "ftspm/obs/ledger.h"
#include "ftspm/report/campaign_report.h"
#include "ftspm/serve/client.h"
#include "ftspm/serve/server.h"
#include "ftspm/util/rng.h"

namespace perfbench {

namespace {

using ftspm::serve::CampaignRunHooks;
using ftspm::serve::CampaignSpec;

/// Runs `fn(i)` under a span until `slice` seconds have passed, at
/// least `min_calls` and at most `max_calls` times; returns the seconds
/// of each call.
template <typename Fn>
std::vector<double> time_calls(Tracer& tracer, const char* span,
                               double slice, std::size_t min_calls,
                               std::size_t max_calls, Fn&& fn) {
  std::vector<double> out;
  const auto start = Clock::now();
  while (out.size() < min_calls ||
         (out.size() < max_calls &&
          seconds_between(start, Clock::now()) < slice)) {
    const auto scope = tracer.span(span, out.size());
    const auto t0 = Clock::now();
    fn(out.size());
    out.push_back(seconds_between(t0, Clock::now()));
  }
  return out;
}

/// p50 and p99 of per-call seconds, in microseconds.
void add_us(Report& report, const std::string& name,
            const std::vector<double>& seconds) {
  report.add(name + "_p50", quantile(seconds, 0.50) * 1e6, "us");
  report.add(name + "_p99", quantile(seconds, 0.99) * 1e6, "us");
}

// The regions and policy run_campaign_spec builds for the bulk specs,
// so the lower rungs run exactly the work the spec rung does.
std::vector<ftspm::InjectionRegion> static_regions(
    const CampaignSpec& spec) {
  return {ftspm::InjectionRegion{ftspm::RegionGeometry(spec.size, 8),
                                 ftspm::ProtectionKind::SecDed,
                                 spec.occupancy, spec.interleave}};
}

ftspm::RecoveryRegion recovery_region(const CampaignSpec& spec) {
  ftspm::RecoveryRegion region;
  region.inject = static_regions(spec).front();
  region.tech = ftspm::TechnologyLibrary().secded_sram();
  region.dirty_fraction = spec.dirty_fraction;
  region.refetch_words = spec.refetch_words;
  region.scrub = true;
  return region;
}

ftspm::RecoveryPolicy recovery_policy(const CampaignSpec& spec) {
  return ftspm::make_recovery_policy(ftspm::SimConfig{}, spec.recover,
                                     spec.scrub_interval);
}

bool sums(const ftspm::CampaignResult& r) {
  return r.masked + r.dre + r.due + r.sdc == r.strikes;
}

void ecc_rung(const Options& opts, Report& report, Tracer& tracer,
              double slice) {
  const std::size_t n = opts.smoke ? 4096 : 65536;
  ftspm::Rng rng(derive_seed(opts.seed, 20, 0));
  std::vector<std::uint64_t> data(n);
  std::vector<std::uint8_t> check(n), syndromes(n), reference(n);
  // The >= 2-bit patterns the chunk engine defers to the fold: 2..4
  // flipped bits anywhere in the 72-bit codeword.
  for (std::size_t i = 0; i < n; ++i) {
    do {
      data[i] = 0;
      check[i] = 0;
      const std::uint64_t flips = 2 + rng.next_below(3);
      for (std::uint64_t f = 0; f < flips; ++f) {
        const std::uint64_t bit = rng.next_below(72);
        if (bit < 64)
          data[i] ^= std::uint64_t{1} << bit;
        else
          check[i] ^= static_cast<std::uint8_t>(1u << (bit - 64));
      }
    } while (std::popcount(data[i]) + std::popcount(check[i]) < 2);
  }
  const std::vector<double> t =
      time_calls(tracer, "ecc.fold_syndromes", slice, 3, 100000,
                 [&](std::size_t) {
                   ftspm::SecDedCodec::fold_syndromes(
                       data.data(), check.data(), n, syndromes.data());
                 });
  ftspm::SecDedCodec::fold_syndromes_scalar(data.data(), check.data(), n,
                                            reference.data());
  report.check(syndromes == reference,
               std::string("fold backend '") +
                   ftspm::SecDedCodec::fold_backend() +
                   "' disagrees with the scalar fold");
  report.add("ecc.fold_patterns_per_s", static_cast<double>(n) / median(t),
             "patterns/s");
}

void fault_rungs(const Options& opts, const Pinned& pinned, Report& report,
                 Tracer& tracer, double slice) {
  const CampaignSpec spec = static_spec(1, derive_seed(opts.seed, 21, 0));
  const auto regions = static_regions(spec);
  const auto model = ftspm::StrikeMultiplicityModel::for_node(spec.node);
  ftspm::CampaignConfig cfg;
  cfg.strikes = std::uint64_t{1} << 62;
  cfg.seed = spec.seed;
  ftspm::CampaignShardState state = ftspm::begin_campaign_shard(cfg.seed);
  const std::uint64_t chunk = opts.smoke ? 4096 : 65536;
  const std::vector<double> t = time_calls(
      tracer, "fault.run_campaign_chunk", slice, 3, 100000,
      [&](std::size_t) {
        ftspm::run_campaign_chunk(regions, model, cfg, state, chunk);
      });
  report.check(state.done == state.partial.strikes && sums(state.partial),
               "fault chunk counters do not sum");
  report.add("fault.chunk_strikes_per_s", static_cast<double>(chunk) /
                                              median(t),
             "strikes/s");

  // Serial recovery at a pinned size and seed: its counters repeat
  // exactly and normalise the recovery time.
  Counters last;
  const std::vector<double> r = time_calls(
      tracer, "fault.run_recovery_campaign", slice, 1, 1000,
      [&](std::size_t i) {
        Counters got = serial_recovery(kLadderRecoveryStrikes, default_seed());
        report.check(i == 0 || got == last,
                     "serial recovery counters changed between calls");
        last = std::move(got);
      });
  std::string why;
  report.check(last.outcomes_sum() &&
                   pinned.matches("ladder.recovery", last, why),
               why.empty() ? "serial recovery outcomes do not sum" : why);
  report.add("fault.recovery_strikes_per_s",
             static_cast<double>(kLadderRecoveryStrikes) / median(r),
             "strikes/s");
  for (const char* name :
       {"demand_reads", "scrub_words", "scrub_corrections", "refetches"})
    report.add(std::string("fault.") + name,
               static_cast<double>(last.get(name)), "count");
}

void exec_and_spec_rungs(const Options& opts, Kind kind, Report& report,
                         Tracer& tracer, double slice) {
  const std::uint64_t strikes = bulk_strikes(kind, opts.smoke);
  double rate[3] = {};
  for (const std::uint32_t jobs : {1u, 2u}) {
    const std::vector<double> t = time_calls(
        tracer, jobs == 1 ? "exec.sharded_j1" : "exec.sharded_j2", slice, 3,
        1000, [&](std::size_t i) {
          const CampaignSpec spec =
              bulk_spec(kind, strikes, derive_seed(opts.seed, 22 + jobs, i));
          ftspm::CampaignConfig cfg;
          cfg.strikes = spec.strikes;
          cfg.seed = spec.seed;
          ftspm::exec::ExecConfig ec;
          ec.jobs = jobs;
          ec.shards = spec.shards;
          const auto model =
              ftspm::StrikeMultiplicityModel::for_node(spec.node);
          ftspm::CampaignResult merged;
          bool complete = false;
          if (kind == Kind::Static) {
            const ftspm::exec::ShardedRun run =
                ftspm::exec::run_campaign_sharded(static_regions(spec), model,
                                                  cfg, ec);
            merged = run.merged;
            complete = run.complete;
          } else {
            const ftspm::exec::RecoveryShardedRun run =
                ftspm::exec::run_recovery_campaign_sharded(
                    {recovery_region(spec)}, model, cfg,
                    recovery_policy(spec), ec);
            merged = run.merged.strikes;
            complete = run.complete;
          }
          report.check(complete && merged.strikes == strikes && sums(merged),
                       "sharded run ran short or does not sum");
        });
    rate[jobs] = static_cast<double>(strikes) / median(t);
  }
  report.add("exec.strikes_per_s_j1", rate[1], "strikes/s");
  report.add("exec.strikes_per_s_j2", rate[2], "strikes/s");
  report.add("exec.scaling_eff", rate[2] / (2.0 * rate[1]), "ratio");

  const std::vector<double> t = time_calls(
      tracer, "serve.run_campaign_spec", slice, 3, 1000, [&](std::size_t i) {
        const CampaignSpec spec =
            bulk_spec(kind, strikes, derive_seed(opts.seed, 25, i));
        CampaignRunHooks hooks;
        hooks.jobs = kJobs;
        const auto out = ftspm::serve::run_campaign_spec(spec, hooks);
        report.check(out.complete && out.result.strikes.strikes == strikes &&
                         sums(out.result.strikes),
                     "spec run ran short or does not sum");
      });
  report.add("serve.spec_strikes_per_s", static_cast<double>(strikes) /
                                             median(t),
             "strikes/s");
}

/// The fixed-cost ladder: one 2k-strike request through each rung in
/// turn, sequentially, so each rung's p50/p99 is its own per-call cost.
void fixed_cost_rungs(const Options& opts, Report& report, Tracer& tracer) {
  const std::size_t n = opts.smoke ? 30 : 2000;
  const auto spec_at = [&](std::size_t i) {
    return served_spec(derive_seed(opts.seed, 26, i));
  };
  const CampaignSpec first = spec_at(0);
  const auto regions = static_regions(first);
  const auto model = ftspm::StrikeMultiplicityModel::for_node(first.node);

  const std::vector<double> chunk =
      time_calls(tracer, "fault.run_campaign_chunk", 0.0, n, n,
                 [&](std::size_t i) {
                   ftspm::CampaignConfig cfg;
                   cfg.strikes = kServedStrikes;
                   cfg.seed = spec_at(i).seed;
                   ftspm::CampaignShardState state =
                       ftspm::begin_campaign_shard(cfg.seed);
                   ftspm::run_campaign_chunk(regions, model, cfg, state,
                                             kServedStrikes);
                 });
  add_us(report, "fault.chunk_us", chunk);

  ftspm::exec::ThreadPool pool(kJobs);
  const std::vector<double> exec_call =
      time_calls(tracer, "exec.run_campaign_sharded", 0.0, n, n,
                 [&](std::size_t i) {
                   ftspm::CampaignConfig cfg;
                   cfg.strikes = kServedStrikes;
                   cfg.seed = spec_at(i).seed;
                   ftspm::exec::ExecConfig ec;
                   ec.pool = &pool;
                   ec.shards = 1;
                   ftspm::exec::run_campaign_sharded(regions, model, cfg, ec);
                 });
  add_us(report, "exec.call_us", exec_call);

  ftspm::serve::CampaignOutcome outcome;
  const std::vector<double> spec_call =
      time_calls(tracer, "serve.run_campaign_spec", 0.0, n, n,
                 [&](std::size_t i) {
                   CampaignRunHooks hooks;
                   hooks.pool = &pool;
                   outcome = ftspm::serve::run_campaign_spec(spec_at(i),
                                                             hooks);
                 });
  add_us(report, "serve.spec_us", spec_call);

  const std::string stem =
      opts.scratch_dir + "/ladder-" + std::to_string(::getpid());
  const std::string ledger = stem + "-ledger.jsonl";
  const ftspm::obs::LedgerRecord record =
      ftspm::serve::campaign_spec_record(first, outcome);
  const std::vector<double> append =
      time_calls(tracer, "obs.append_ledger", 0.0, n, n, [&](std::size_t) {
        ftspm::obs::append_ledger(record, ledger);
      });
  add_us(report, "obs.ledger_append_us", append);
  // The daemon names each run by scanning the whole ledger first, so a
  // served request pays this per record already in the ledger.
  const std::vector<double> scan = time_calls(
      tracer, "obs.scan_ledger", 0.0, opts.smoke ? 2 : 20, opts.smoke ? 2 : 20,
      [&](std::size_t) {
        report.check(ftspm::obs::scan_ledger(ledger).records.size() == n,
                     "ledger scan lost records");
      });
  std::remove(ledger.c_str());
  report.add("obs.ledger_scan_us_per_record",
             median(scan) * 1e6 / static_cast<double>(n), "us");

  // No ledger here: these rungs are the serving path's own fixed cost;
  // the ledger's share is the two obs rungs above.
  ftspm::serve::ServerConfig cfg;
  cfg.socket_path = stem + ".sock";
  cfg.jobs = kJobs;
  ftspm::serve::Server server(cfg);
  server.start();
  {
    ftspm::serve::Client client =
        ftspm::serve::Client::connect_unix(cfg.socket_path);
    const std::vector<double> ping = time_calls(
        tracer, "serve.ping", 0.0, n, n, [&](std::size_t) { client.ping(); });
    add_us(report, "serve.ping_rtt_us", ping);

    std::vector<double> accept, result, non_compute;
    for (std::size_t i = 0; i < n; ++i) {
      const RoundTrip rt =
          round_trip(client, spec_at(i), "ladder-" + std::to_string(i), i,
                     tracer);
      report.check(rt.result.at("complete").boolean,
                   "ladder request incomplete");
      accept.push_back(rt.accept_s);
      result.push_back(rt.total_s - rt.accept_s);
      // Paired per request: the result frame carries the daemon's own
      // wall time of its run_campaign_spec call.
      non_compute.push_back(rt.total_s -
                            rt.result.at("wall_ms").number / 1e3);
    }
    add_us(report, "serve.accept_us", accept);
    add_us(report, "serve.result_us", result);
    add_us(report, "serve.non_compute_us", non_compute);
  }
  server.request_stop();
  server.wait();
}

/// Traced paper-pipeline passes: per-layer time is the sum of a
/// layer's spans inside one pass, median over passes.
void pipeline_rung(const Options& opts, const Pinned& pinned, Report& report,
                   Tracer& tracer) {
  static const char* const kLayers[][2] = {
      {"workload.gen", "workload.gen_ms"}, {"profile", "profile.ms"},
      {"core.map", "core.map_ms"},         {"sim", "sim.ms"},
      {"core.avf", "core.avf_ms"},         {"core.temporal", "core.temporal_ms"},
  };
  const ftspm::StructureEvaluator ev;
  const std::uint64_t temporal = opts.smoke ? 20'000 : kTemporalStrikes;
  const int passes = opts.smoke ? 1 : 2;
  std::map<std::string, std::vector<double>> layer_ms;
  std::vector<double> coverage;
  PassResult pass;
  for (int p = 0; p < passes; ++p) {
    const std::size_t first = tracer.spans().size();
    pass = pipeline_pass(ev, 1, temporal,
                         derive_seed(opts.seed, 27, static_cast<std::uint64_t>(p)),
                         tracer);
    std::string why;
    report.check(pass.temporal_complete && pass_matches(pass, pinned, why),
                 why.empty() ? "ladder pipeline temporal ran short" : why);
    const std::vector<Span>& spans = tracer.spans();
    const Span& whole = spans[first];
    std::map<std::string, double> sum;
    for (std::size_t i = first + 1; i < spans.size(); ++i)
      if (spans[i].parent == static_cast<std::int32_t>(first))
        sum[spans[i].name] += spans[i].ms();
    double covered = 0.0;
    for (const auto& layer : kLayers) {
      layer_ms[layer[0]].push_back(sum[layer[0]]);
      covered += sum[layer[0]];
    }
    coverage.push_back(covered / whole.ms());
  }
  for (const auto& layer : kLayers)
    report.add(layer[1], median(layer_ms[layer[0]]), "ms");
  report.add("sim.accesses_per_s",
             static_cast<double>(pass.simulated_accesses) /
                 (median(layer_ms["sim"]) / 1e3),
             "accesses/s");
  report.add("core.temporal_strikes_per_s",
             static_cast<double>(pass.temporal_strikes) /
                 (median(layer_ms["core.temporal"]) / 1e3),
             "strikes/s");
  report.add("core.layer_coverage", median(coverage), "ratio");
  report.add("sim.simulated_cycles",
             static_cast<double>(pass.simulated_cycles), "cycles");
}

}  // namespace

Counters serial_recovery(std::uint64_t strikes, std::uint64_t seed) {
  const CampaignSpec spec = recovery_spec(strikes, seed);
  ftspm::CampaignConfig cfg;
  cfg.strikes = strikes;
  cfg.seed = seed;
  const ftspm::RecoveryResult r = ftspm::run_recovery_campaign(
      {recovery_region(spec)},
      ftspm::StrikeMultiplicityModel::for_node(spec.node), cfg,
      recovery_policy(spec));
  return Counters{ftspm::report::campaign_run_record(
                      r.strikes, &r.recovery, spec.protection, seed, 1, 1,
                      0.0, 0.0)
                      .counters};
}

void run_ladder(const Options& opts, Kind kind, const Pinned& pinned,
                Report& report, Tracer& tracer) {
  const double slice = opts.smoke ? 0.02 : 0.5;
  std::cout << "ladder: fold backend " << ftspm::SecDedCodec::fold_backend()
            << ", campaign kind "
            << (kind == Kind::Static ? "static" : "recovery") << '\n';
  ecc_rung(opts, report, tracer, slice);
  fault_rungs(opts, pinned, report, tracer, slice);
  exec_and_spec_rungs(opts, kind, report, tracer, slice);
  fixed_cost_rungs(opts, report, tracer);
  pipeline_rung(opts, pinned, report, tracer);
}

}  // namespace perfbench
