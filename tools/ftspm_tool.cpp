// ftspm_tool — command-line driver over the whole library.
//
//   ftspm_tool list
//   ftspm_tool profile  <workload> [--scale N] [--csv]
//   ftspm_tool map      <workload> [--priority P] [--perf-overhead F]
//                       [--energy-overhead F] [--write-threshold N]
//                       [--word-threshold N] [--scale N]
//   ftspm_tool simulate <workload> [--structure ftspm|sram|stt] [--scale N]
//   ftspm_tool evaluate <workload> [--scale N]
//   ftspm_tool schedule <workload> [--scale N] [--max-commands N]
//   ftspm_tool suite    [--scale N]
//   ftspm_tool stats    <workload> [--structure ftspm|sram|stt] [--scale N]
//   ftspm_tool campaign [--protection parity|secded] [--strikes N]
//                       [--interleave K] [--node NM] [--shards N]
//                       [--checkpoint FILE] [--resume FILE]
//                       [--checkpoint-interval N]
//                       [--recover] [--scrub-interval N]
//                       [--dirty-fraction F] [--refetch-words N]
//                       [--sensitivity-out FILE] [--sensitivity-buckets N]
//                       [--json] [--csv]
//
//   ftspm_tool serve    [--socket PATH] [--tcp PORT] [--max-queue N]
//                       [--max-connections N] [--max-frame-bytes N]
//   ftspm_tool load     [--socket PATH] [--tcp PORT] [--connections N]
//                       [--requests N] [--mix name:w[:strikes],...]
//                       [--rate R] [--seed N] [--quick] [--json] [--csv]
//   ftspm_tool runs list [--ledger FILE] [--last N]
//   ftspm_tool compare <runA> <runB> [--ledger FILE] [--threshold PCT]
//                      [--metric NAME]
//   ftspm_tool report <run> [--metrics FILE] [--sensitivity FILE]
//                     [--html FILE] [--out-csv FILE]
//   ftspm_tool report trend [--csv]
//
// Global options (accepted by every command, any position):
//   --trace-out FILE    write a Chrome trace-event JSON of the run
//   --metrics-out FILE  write the metrics registry snapshot as JSON
//   --events-out FILE   write the structured NDJSON event log
//   --heartbeat-out FILE        live NDJSON heartbeats (campaign)
//   --heartbeat-interval-ms N   milliseconds between heartbeats (1000)
//   --ledger FILE       append this run's record to an NDJSON ledger
//   --run-id NAME       ledger record id (default run-<index>)
//   --progress          report progress on stderr (suite/report/campaign)
//   --jobs N            worker threads for suite/report/campaign
//                       (default 1 = serial; 0 = hardware concurrency)
//
// Workloads: `case_study` (the paper's Section-IV program) or any
// MiBench-style suite name (`ftspm_tool list`).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "ftspm/core/partition.h"
#include "ftspm/core/systems.h"
#include "ftspm/core/transfer_schedule.h"
#include "ftspm/exec/thread_pool.h"
#include "ftspm/obs/context.h"
#include "ftspm/obs/ledger.h"
#include "ftspm/obs/timer.h"
#include "ftspm/profile/reuse.h"
#include "ftspm/fault/injector.h"
#include "ftspm/fault/sensitivity.h"
#include "ftspm/report/campaign_report.h"
#include "ftspm/report/csv_export.h"
#include "ftspm/report/json_report.h"
#include "ftspm/report/render.h"
#include "ftspm/report/run_compare.h"
#include "ftspm/report/saturation.h"
#include "ftspm/report/suite_runner.h"
#include "ftspm/serve/campaign_spec.h"
#include "ftspm/serve/client.h"
#include "ftspm/serve/load.h"
#include "ftspm/serve/server.h"
#include "ftspm/util/args.h"
#include "ftspm/util/error.h"
#include "ftspm/util/format.h"
#include "ftspm/util/table.h"
#include "ftspm/util/version.h"
#include "ftspm/workload/case_study.h"
#include "ftspm/workload/trace_io.h"
#include "ftspm/workload/suite.h"

namespace ftspm {
namespace {

/// Reads a file the user named. One that cannot be opened is a usage
/// error (exit 2), reported by its path alone.
std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw InvalidArgument("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Writes `text` to a file the user named, with read_text_file()'s
/// rule for a path that cannot be opened; a failed write exits 1.
void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out.good())
    throw InvalidArgument("cannot open '" + path + "' for writing");
  out << text;
  if (!out.good()) throw Error("write to '" + path + "' failed");
}

/// Options every subcommand accepts (extracted before subcommand
/// parsing so they work in any argv position).
struct GlobalOptions {
  std::string trace_out;
  std::string metrics_out;
  std::string events_out;
  std::string heartbeat_out;
  std::uint32_t heartbeat_interval_ms = 1000;
  std::string ledger;  ///< Append a run record here (campaign/suite).
  std::string run_id;  ///< Ledger id override (default run-<index>).
  bool progress = false;
  std::uint32_t jobs = 1;  // 0 = hardware concurrency
};

/// Owns the telemetry of one tool invocation: the obs::Context every
/// command hands its runs when any artefact was requested, the trace
/// sink and event log it points at, and the files written at the end.
class ObsSession {
 public:
  explicit ObsSession(GlobalOptions opts)
      : opts_(std::move(opts)),
        on_(!opts_.trace_out.empty() || !opts_.metrics_out.empty() ||
            !opts_.events_out.empty()) {
    if (!opts_.trace_out.empty()) context_.trace = &trace_;
    if (!opts_.events_out.empty()) context_.events = &events_;
  }

  bool progress() const noexcept { return opts_.progress; }
  std::uint32_t jobs() const noexcept { return opts_.jobs; }
  const GlobalOptions& options() const noexcept { return opts_; }

  /// The invocation's telemetry, or null when no artefact was
  /// requested (telemetry off).
  obs::Context* context() noexcept { return on_ ? &context_ : nullptr; }

  /// Hands the --trace-out destination to a command that records its
  /// own trace in the wall-clock domain (`serve`) and disarms the
  /// simulated-time sink, so finish() neither clobbers the file nor
  /// reports a second write. Returns the path (empty when none).
  std::string take_trace_out() {
    context_.trace = nullptr;
    std::string path = std::move(opts_.trace_out);
    opts_.trace_out.clear();
    return path;
  }

  /// Writes the requested artefacts. Called after the command ran so
  /// I/O errors surface as a nonzero exit instead of dying in a dtor.
  void finish() {
    if (!opts_.trace_out.empty()) {
      trace_.write_file(opts_.trace_out);
      std::cerr << "wrote trace (" << trace_.event_count() << " events) to "
                << opts_.trace_out << "\n";
    }
    if (!opts_.metrics_out.empty()) {
      write_text_file(opts_.metrics_out, context_.registry.to_json() + "\n");
      std::cerr << "wrote metrics to " << opts_.metrics_out << "\n";
    }
    if (!opts_.events_out.empty()) {
      events_.write_file(opts_.events_out);
      std::cerr << "wrote event log (" << events_.record_count()
                << " records) to " << opts_.events_out << "\n";
    }
  }

 private:
  GlobalOptions opts_;
  bool on_;
  obs::TraceEventSink trace_;
  obs::EventLog events_;
  obs::Context context_;
};

/// The invocation's session, set by dispatch() before any cmd_* runs.
ObsSession* g_session = nullptr;

bool progress_requested() {
  return g_session != nullptr && g_session->progress();
}

/// The session's telemetry context; null when telemetry is off.
obs::Context* session_obs() {
  return g_session != nullptr ? g_session->context() : nullptr;
}

/// Worker threads requested via the global --jobs option; resolves the
/// "0 = auto" spelling so callers see a concrete count.
std::uint32_t jobs_requested() {
  const std::uint32_t jobs = g_session != nullptr ? g_session->jobs() : 1;
  return jobs == 0 ? exec::default_jobs() : jobs;
}

/// Pulls --trace-out/--metrics-out/--progress out of argv; everything
/// else passes through (in order) to the subcommand's own parser.
std::vector<std::string> extract_global_options(int argc,
                                                const char* const* argv,
                                                GlobalOptions& g) {
  std::vector<std::string> rest;
  rest.reserve(static_cast<std::size_t>(argc));
  auto take_value = [&](std::string_view arg, std::string_view name,
                        std::string* out, int& i) {
    if (arg == name) {
      FTSPM_REQUIRE(i + 1 < argc,
                    std::string(name) + " requires a file argument");
      *out = argv[++i];
      return true;
    }
    if (arg.size() > name.size() + 1 &&
        arg.substr(0, name.size()) == name && arg[name.size()] == '=') {
      *out = std::string(arg.substr(name.size() + 1));
      return true;
    }
    return false;
  };
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--progress") {
      g.progress = true;
      continue;
    }
    if (take_value(arg, "--trace-out", &g.trace_out, i)) continue;
    if (take_value(arg, "--metrics-out", &g.metrics_out, i)) continue;
    if (take_value(arg, "--events-out", &g.events_out, i)) continue;
    if (take_value(arg, "--heartbeat-out", &g.heartbeat_out, i)) continue;
    if (take_value(arg, "--ledger", &g.ledger, i)) continue;
    if (take_value(arg, "--run-id", &g.run_id, i)) continue;
    // stoul stops at the first non-digit, so "8x" would silently parse
    // as 8; demand that the whole token was consumed.
    auto parse_count = [](std::string_view name, const std::string& text,
                          unsigned long max) {
      try {
        std::size_t consumed = 0;
        const unsigned long v = std::stoul(text, &consumed);
        if (consumed != text.size())
          throw InvalidArgument(std::string(name) + " value '" + text +
                                "' has trailing characters");
        if (v > max)
          throw InvalidArgument(std::string(name) + " must be at most " +
                                std::to_string(max));
        return v;
      } catch (const InvalidArgument&) {
        throw;
      } catch (const std::exception&) {
        throw InvalidArgument(std::string(name) +
                              " requires a non-negative integer");
      }
    };
    std::string jobs_text;
    if (take_value(arg, "--jobs", &jobs_text, i)) {
      g.jobs =
          static_cast<std::uint32_t>(parse_count("--jobs", jobs_text, 1024));
      continue;
    }
    std::string interval_text;
    if (take_value(arg, "--heartbeat-interval-ms", &interval_text, i)) {
      const unsigned long v =
          parse_count("--heartbeat-interval-ms", interval_text, 3600000);
      FTSPM_REQUIRE(v > 0, "--heartbeat-interval-ms must be positive");
      g.heartbeat_interval_ms = static_cast<std::uint32_t>(v);
      continue;
    }
    rest.emplace_back(arg);
  }
  return rest;
}

/// Appends one run record to the --ledger file; a no-op when the
/// option is absent. Fills the id: --run-id wins, else run-<index>
/// over the records already in the file. Indexing uses the lenient
/// scan so one torn line (a crashed appender) cannot brick every
/// future append to the ledger.
void append_run_record(obs::LedgerRecord record) {
  if (g_session == nullptr) return;
  const GlobalOptions& g = g_session->options();
  if (g.ledger.empty()) return;
  record.id =
      !g.run_id.empty()
          ? g.run_id
          : "run-" + std::to_string(obs::scan_ledger(g.ledger).records.size());
  obs::append_ledger(record, g.ledger);
  std::cerr << "appended run '" << record.id << "' to " << g.ledger << "\n";
}

/// The ledger the read-side commands (`runs`, `compare`) consult:
/// --ledger when given, else the conventional ./ledger.jsonl.
std::string ledger_path_or_default() {
  const std::string path =
      g_session != nullptr ? g_session->options().ledger : std::string();
  return path.empty() ? "ledger.jsonl" : path;
}

/// Progress reporter for the suite-shaped commands; ETA comes from the
/// wall clock (reporting only — results stay deterministic).
SuiteProgress make_suite_progress() {
  if (!progress_requested()) return {};
  const auto start = std::chrono::steady_clock::now();
  return [start](std::size_t done, std::size_t total,
                 const std::string& name) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    const double eta =
        done ? elapsed / static_cast<double>(done) *
                   static_cast<double>(total - done)
             : 0.0;
    std::cerr << "[" << done << "/" << total << "] " << name << "  (ETA "
              << fixed(eta, 1) << "s)\n";
  };
}

Workload resolve_workload(const std::string& name, std::uint64_t scale) {
  // Anything that looks like a path is loaded from the trace format.
  if (name.find('/') != std::string::npos ||
      name.find(".trace") != std::string::npos) {
    return load_workload(name);
  }
  if (name == "case_study") {
    return make_case_study(scale > 1 ? CaseStudyTargets{}.scaled_down(scale)
                                     : CaseStudyTargets{});
  }
  for (MiBenchmark bench : all_benchmarks())
    if (name == to_string(bench)) return make_benchmark(bench, scale);
  throw InvalidArgument("unknown workload '" + name +
                        "' (try `ftspm_tool list`)");
}

OptimizationPriority resolve_priority(const std::string& name) {
  for (OptimizationPriority p :
       {OptimizationPriority::Reliability, OptimizationPriority::Performance,
        OptimizationPriority::Power, OptimizationPriority::Endurance})
    if (name == to_string(p)) return p;
  throw InvalidArgument("unknown priority '" + name + "'");
}

MdaConfig mda_config_from(const ArgParser& args) {
  MdaConfig cfg;
  cfg.priority = resolve_priority(args.option("priority"));
  cfg.thresholds.performance_overhead = args.option_double("perf-overhead");
  cfg.thresholds.energy_overhead = args.option_double("energy-overhead");
  cfg.thresholds.write_cycles_threshold = args.option_uint("write-threshold");
  cfg.thresholds.word_write_threshold = args.option_uint("word-threshold");
  return cfg;
}

void add_common_options(ArgParser& args) {
  args.add_option("scale", "trace scale divisor (1 = full size)", "1");
  args.add_option("priority",
                  "MDA priority: reliability|performance|power|endurance",
                  "reliability");
  args.add_option("perf-overhead", "MDA performance threshold", "0.75");
  args.add_option("energy-overhead", "MDA energy threshold", "0.80");
  args.add_option("write-threshold", "MDA block write-cycles threshold",
                  "100000");
  args.add_option("word-threshold", "MDA per-word write threshold (0=off)",
                  "1000");
}

int cmd_list() {
  std::cout << "case_study  (the paper's Section-IV motivational example)\n";
  for (MiBenchmark bench : all_benchmarks())
    std::cout << to_string(bench) << "\n";
  return 0;
}

int cmd_profile(int argc, const char* const* argv) {
  ArgParser args("ftspm_tool profile", "profile a workload (Table I)");
  args.add_option("scale", "trace scale divisor", "1");
  args.add_flag("csv", "emit CSV instead of an ASCII table");
  args.parse(argc, argv, 2);
  FTSPM_REQUIRE(args.positionals().size() == 1, "expected one workload name");
  const Workload w =
      resolve_workload(args.positionals()[0], args.option_uint("scale"));
  const ProgramProfile prof = profile_workload(w);
  if (args.flag("csv")) {
    CsvWriter csv({"block", "kind", "size_bytes", "reads", "writes",
                   "references", "stack_calls", "max_stack_bytes",
                   "lifetime_cycles", "ace_cycles", "max_word_writes"});
    for (const BlockProfile& bp : prof.blocks) {
      const Block& blk = w.program.block(bp.id);
      csv.add_row({blk.name, to_string(blk.kind),
                   std::to_string(blk.size_bytes), std::to_string(bp.reads),
                   std::to_string(bp.writes), std::to_string(bp.references),
                   std::to_string(bp.stack_calls),
                   std::to_string(bp.max_stack_bytes),
                   std::to_string(bp.lifetime_cycles),
                   std::to_string(bp.ace_cycles),
                   std::to_string(bp.max_word_writes)});
    }
    std::cout << csv.render();
  } else {
    std::cout << render_profile_table(w.program, prof);
  }
  return 0;
}

int cmd_map(int argc, const char* const* argv) {
  ArgParser args("ftspm_tool map", "run MDA on a workload (Table II)");
  add_common_options(args);
  args.parse(argc, argv, 2);
  FTSPM_REQUIRE(args.positionals().size() == 1, "expected one workload name");
  const Workload w =
      resolve_workload(args.positionals()[0], args.option_uint("scale"));
  const ProgramProfile prof = profile_workload(w);
  const StructureEvaluator evaluator(TechnologyLibrary(),
                                     mda_config_from(args));
  const SystemResult r = evaluator.evaluate_ftspm(w, prof, session_obs());
  std::cout << render_mapping_table(w.program, r.plan,
                                    evaluator.ftspm_layout());
  return 0;
}

int cmd_simulate(int argc, const char* const* argv) {
  ArgParser args("ftspm_tool simulate",
                 "simulate a workload on one structure");
  add_common_options(args);
  args.add_option("structure", "ftspm|sram|stt", "ftspm");
  args.add_flag("blocks", "print the per-block diagnostic table");
  args.parse(argc, argv, 2);
  FTSPM_REQUIRE(args.positionals().size() == 1, "expected one workload name");
  const Workload w =
      resolve_workload(args.positionals()[0], args.option_uint("scale"));
  const ProgramProfile prof = profile_workload(w);
  const StructureEvaluator evaluator(TechnologyLibrary(),
                                     mda_config_from(args));

  const std::string structure = args.option("structure");
  obs::Context* obs = session_obs();
  SystemResult r = [&] {
    if (structure == "ftspm") return evaluator.evaluate_ftspm(w, prof, obs);
    if (structure == "sram") return evaluator.evaluate_pure_sram(w, prof, obs);
    if (structure == "stt") return evaluator.evaluate_pure_stt(w, prof, obs);
    throw InvalidArgument("unknown structure '" + structure + "'");
  }();
  const SpmLayout& layout = structure == "ftspm"
                                ? evaluator.ftspm_layout()
                                : (structure == "sram"
                                       ? evaluator.pure_sram_layout()
                                       : evaluator.pure_stt_layout());

  std::cout << render_rw_distribution(layout, r.run) << "\n";
  if (args.flag("blocks"))
    std::cout << render_block_report(w.program, r, layout, prof,
                                     evaluator.strike_model())
              << "\n";
  std::cout << "cycles:             " << with_commas(r.run.total_cycles)
            << "  (compute " << with_commas(r.run.compute_cycles) << ", SPM "
            << with_commas(r.run.spm_cycles) << ", cache "
            << with_commas(r.run.cache_cycles) << ", DRAM "
            << with_commas(r.run.dram_penalty_cycles) << ", DMA "
            << with_commas(r.run.dma_cycles) << ")\n";
  std::cout << "SPM dynamic energy: "
            << si_string(r.run.spm_dynamic_energy_pj() * 1e-12, "J") << "\n";
  std::cout << "SPM static energy:  "
            << si_string(r.run.spm_static_energy_pj * 1e-12, "J") << "\n";
  std::cout << "vulnerability:      " << percent(r.avf.vulnerability())
            << "  (SDC " << percent(r.avf.sdc_avf) << ", DUE "
            << percent(r.avf.due_avf) << ")\n";
  std::cout << "max STT write rate: "
            << (r.endurance.unlimited()
                    ? std::string("none (unlimited endurance)")
                    : fixed(r.endurance.max_word_write_rate_per_s, 2) +
                          "/s")
            << "\n";
  return 0;
}

int cmd_evaluate(int argc, const char* const* argv) {
  ArgParser args("ftspm_tool evaluate",
                 "compare all three structures on a workload");
  add_common_options(args);
  args.add_flag("json", "emit machine-readable JSON");
  args.parse(argc, argv, 2);
  FTSPM_REQUIRE(args.positionals().size() == 1, "expected one workload name");
  const std::uint64_t scale = args.option_uint("scale");
  const Workload w = resolve_workload(args.positionals()[0], scale);
  const StructureEvaluator evaluator(TechnologyLibrary(),
                                     mda_config_from(args));
  if (args.flag("json")) {
    const RunManifest manifest{"ftspm_tool evaluate", args.positionals()[0],
                               scale, 0};
    const ProgramProfile prof = profile_workload(w);
    obs::Context* obs = session_obs();
    std::cout << "["
              << system_result_json(evaluator.evaluate_ftspm(w, prof, obs),
                                    evaluator.ftspm_layout(), w.program,
                                    manifest)
              << ","
              << system_result_json(evaluator.evaluate_pure_sram(w, prof, obs),
                                    evaluator.pure_sram_layout(), w.program,
                                    manifest)
              << ","
              << system_result_json(evaluator.evaluate_pure_stt(w, prof, obs),
                                    evaluator.pure_stt_layout(), w.program,
                                    manifest)
              << "]\n";
    return 0;
  }
  AsciiTable t({"Structure", "Cycles", "Vulnerability", "Dyn E (uJ)",
                "Stat E (uJ)", "Max STT wr/s"});
  t.set_align(0, Align::Left);
  for (const SystemResult& r : evaluator.evaluate_all(w, session_obs())) {
    t.add_row({r.structure, with_commas(r.run.total_cycles),
               fixed(r.avf.vulnerability(), 4),
               fixed(r.run.spm_dynamic_energy_pj() / 1e6, 1),
               fixed(r.run.spm_static_energy_pj / 1e6, 1),
               r.endurance.unlimited()
                   ? "unlimited"
                   : fixed(r.endurance.max_word_write_rate_per_s, 2)});
  }
  std::cout << t.render();
  return 0;
}

int cmd_schedule(int argc, const char* const* argv) {
  ArgParser args("ftspm_tool schedule",
                 "emit the on-line phase transfer commands");
  add_common_options(args);
  args.add_option("max-commands", "listing length cap", "40");
  args.parse(argc, argv, 2);
  FTSPM_REQUIRE(args.positionals().size() == 1, "expected one workload name");
  const Workload w =
      resolve_workload(args.positionals()[0], args.option_uint("scale"));
  const ProgramProfile prof = profile_workload(w);
  const StructureEvaluator evaluator(TechnologyLibrary(),
                                     mda_config_from(args));
  const SystemResult r = evaluator.evaluate_ftspm(w, prof, session_obs());
  const TransferSchedule sched = TransferSchedule::generate(
      w.program, prof, r.plan, evaluator.ftspm_layout());
  std::cout << sched.render(
      w.program, evaluator.ftspm_layout(),
      static_cast<std::size_t>(args.option_uint("max-commands", SIZE_MAX)));
  return 0;
}

int cmd_suite(int argc, const char* const* argv) {
  ArgParser args("ftspm_tool suite", "run the full evaluation sweep");
  args.add_option("scale", "trace scale divisor", "1");
  args.add_flag("json", "emit machine-readable JSON");
  args.parse(argc, argv, 2);
  const std::uint64_t scale = args.option_uint("scale");
  const StructureEvaluator evaluator;
  const auto wall_start = std::chrono::steady_clock::now();
  const std::vector<SuiteRow> rows =
      run_suite_parallel(evaluator, scale, jobs_requested(),
                         make_suite_progress(), session_obs());
  {
    obs::LedgerRecord record;
    record.command = "suite";
    record.workload = "suite";
    record.scale = scale;
    record.jobs = jobs_requested();
    for (const SuiteRow& row : rows) {
      record.counters.emplace_back(row.name + ".cycles",
                                   row.ftspm.run.total_cycles);
      record.metrics.emplace_back(row.name + ".vulnerability",
                                  row.ftspm.avf.vulnerability());
    }
    record.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - wall_start)
                         .count();
    append_run_record(std::move(record));
  }
  if (args.flag("json")) {
    std::cout << suite_json(rows, evaluator,
                            RunManifest{"ftspm_tool suite", "suite", scale, 0})
              << "\n";
    return 0;
  }
  AsciiTable t({"Benchmark", "Vuln FT", "Vuln SRAM", "Dyn FT/SRAM",
                "Dyn FT/STT", "Endurance gain"});
  for (const SuiteRow& row : rows) {
    const double ft_rate = row.ftspm.endurance.max_word_write_rate_per_s;
    t.add_row({row.name, fixed(row.ftspm.avf.vulnerability(), 4),
               fixed(row.pure_sram.avf.vulnerability(), 4),
               percent(row.ftspm.run.spm_dynamic_energy_pj() /
                       row.pure_sram.run.spm_dynamic_energy_pj()),
               percent(row.ftspm.run.spm_dynamic_energy_pj() /
                       row.pure_stt.run.spm_dynamic_energy_pj()),
               ft_rate > 0
                   ? fixed(row.pure_stt.endurance.max_word_write_rate_per_s /
                               ft_rate,
                           0) +
                         "x"
                   : "unlimited"});
  }
  std::cout << t.render();
  return 0;
}

int cmd_reuse(int argc, const char* const* argv) {
  ArgParser args("ftspm_tool reuse",
                 "LRU reuse-distance analysis of a workload");
  args.add_option("scale", "trace scale divisor", "8");
  args.add_option("line-bytes", "cache line size", "32");
  args.add_option("scope", "data|instructions", "data");
  args.parse(argc, argv, 2);
  FTSPM_REQUIRE(args.positionals().size() == 1, "expected one workload name");
  const ReuseScope scope = [&] {
    const std::string& name = args.option("scope");
    if (name == "data") return ReuseScope::Data;
    if (name == "instructions") return ReuseScope::Instructions;
    throw InvalidArgument("unknown scope '" + name +
                          "' (expected data|instructions)");
  }();
  const auto line_bytes =
      static_cast<std::uint32_t>(args.option_uint("line-bytes", UINT32_MAX));
  const Workload w =
      resolve_workload(args.positionals()[0], args.option_uint("scale"));
  const ReuseProfile prof = compute_reuse_profile(w, scope, line_bytes);
  std::cout << "accesses: " << with_commas(prof.total_accesses)
            << ", mean finite reuse distance "
            << fixed(prof.mean_finite_distance(), 1) << " lines\n";
  AsciiTable t({"Distance (lines)", "Accesses", "Share"});
  t.set_align(0, Align::Left);
  for (std::size_t k = 0; k < ReuseProfile::kBuckets; ++k) {
    if (prof.histogram[k] == 0) continue;
    std::string label;
    if (k + 1 == ReuseProfile::kBuckets) {
      label = "cold / beyond horizon";
    } else if (k == 0) {
      label = "[0, 2)";
    } else {
      label = "[" + std::to_string(1ULL << k) + ", " +
              std::to_string(1ULL << (k + 1)) + ")";
    }
    t.add_row({label, with_commas(prof.histogram[k]),
               percent(static_cast<double>(prof.histogram[k]) /
                       prof.total_accesses)});
  }
  std::cout << t.render();
  for (std::uint64_t lines : {64ull, 256ull, 1024ull}) {
    std::cout << "predicted hit rate @ " << lines
              << "-line LRU cache: " << percent(prof.hit_rate_estimate(lines))
              << "\n";
  }
  return 0;
}

int cmd_partition(int argc, const char* const* argv) {
  ArgParser args("ftspm_tool partition",
                 "split the hybrid SPM among a weighted task set");
  args.add_option("scale", "trace scale divisor", "2");
  args.add_option("granule", "allocation granule in bytes", "512");
  args.parse(argc, argv, 2);
  // Positionals: workload[:weight] ...
  FTSPM_REQUIRE(!args.positionals().empty(),
                "expected one or more workload[:weight] arguments");
  std::vector<Workload> workloads;
  std::vector<double> weights;
  for (const std::string& spec : args.positionals()) {
    std::string name = spec;
    double weight = 1.0;
    if (const auto colon = spec.rfind(':'); colon != std::string::npos) {
      name = spec.substr(0, colon);
      // std::stod would throw std::invalid_argument (exit 1, no usage
      // hint) on "jpeg:abc" and silently accept "jpeg:1.5x"; parse with
      // strtod and demand full consumption of a positive finite value.
      const std::string text = spec.substr(colon + 1);
      char* end = nullptr;
      weight = std::strtod(text.c_str(), &end);
      if (text.empty() || end != text.c_str() + text.size() ||
          !std::isfinite(weight) || weight <= 0.0)
        throw InvalidArgument("bad weight in '" + spec +
                              "': expected a positive number after ':'");
    }
    workloads.push_back(resolve_workload(name, args.option_uint("scale")));
    weights.push_back(weight);
  }
  std::vector<TaskSpec> tasks;
  for (std::size_t i = 0; i < workloads.size(); ++i)
    tasks.push_back(TaskSpec{&workloads[i], weights[i]});
  PartitionConfig pcfg;
  pcfg.granule_bytes = args.option_uint("granule");
  const PartitionResult result =
      partition_and_evaluate(tasks, TechnologyLibrary(), MdaConfig{},
                             FtspmDimensions{}, pcfg, session_obs());

  AsciiTable t({"Task", "Weight", "I-SPM B", "D-STT B", "D-ECC B",
                "D-Par B", "Cycles", "Vulnerability"});
  t.set_align(0, Align::Left);
  for (const TaskPartition& task : result.tasks) {
    t.add_row({task.task_name, fixed(task.weight, 1),
               with_commas(task.dims.ispm_bytes),
               with_commas(task.dims.dspm_stt_bytes),
               with_commas(task.dims.dspm_secded_bytes),
               with_commas(task.dims.dspm_parity_bytes),
               with_commas(task.result.run.total_cycles),
               fixed(task.result.avf.vulnerability(), 4)});
  }
  std::cout << t.render();
  std::cout << "weighted vulnerability: "
            << fixed(result.weighted_vulnerability(), 4) << "\n";
  return 0;
}

/// `report trend`: the whole ledger reduced to its strikes/sec and
/// residual-SDC-rate trajectories, as a table or CSV.
int cmd_report_trend(int argc, const char* const* argv) {
  ArgParser args("ftspm_tool report trend",
                 "throughput and residual-SDC trajectories over the ledger");
  args.add_flag("csv", "emit CSV instead of an ASCII table");
  args.parse(argc, argv, 3);
  FTSPM_REQUIRE(args.positionals().empty(),
                "report trend takes no further arguments");
  const std::string path = ledger_path_or_default();
  const obs::LedgerScan scan = obs::scan_ledger(path);
  for (const std::string& warning : scan.warnings)
    std::cerr << "warning: " << warning << "\n";
  if (scan.records.empty()) {
    std::cout << "ledger " << path << " has no runs\n";
    return 0;
  }
  const std::vector<report::TrendPoint> points =
      report::ledger_trend(scan.records);
  if (args.flag("csv"))
    std::cout << report::trend_csv(points);
  else
    std::cout << report::trend_table(points);
  return 0;
}

/// `report <run>`: one completed run rendered as a self-contained HTML
/// report (heatmaps, outcome tables, percentiles) plus optional CSV.
int cmd_report_run(int argc, const char* const* argv) {
  ArgParser args("ftspm_tool report <run>",
                 "render one completed campaign run as HTML (+ CSV)");
  args.add_option("metrics",
                  "the run's metrics snapshot JSON (--metrics-out file)", "");
  args.add_option("sensitivity",
                  "the run's sensitivity grid CSV (--sensitivity-out file)",
                  "");
  args.add_option("html", "HTML output path", "ftspm_report.html");
  args.add_option("out-csv", "also write the report as CSV to FILE", "");
  args.parse(argc, argv, 2);
  FTSPM_REQUIRE(args.positionals().size() == 1,
                "expected one run reference (id or index)");
  const std::string path = ledger_path_or_default();
  const obs::LedgerScan scan = obs::scan_ledger(path);
  for (const std::string& warning : scan.warnings)
    std::cerr << "warning: " << warning << "\n";
  const obs::LedgerRecord* run =
      obs::find_run(scan.records, args.positionals()[0]);
  if (run == nullptr)
    throw InvalidArgument("run '" + args.positionals()[0] +
                          "' not found in " + path);

  report::CampaignReportInput input;
  input.record = *run;
  if (!args.option("metrics").empty())
    input.metrics = parse_json(read_text_file(args.option("metrics")));
  if (!args.option("sensitivity").empty())
    input.grid =
        SensitivityGrid::from_csv(read_text_file(args.option("sensitivity")));

  const std::string html_path = args.option("html");
  write_text_file(html_path, report::campaign_report_html(input));
  std::cout << "wrote report for run '" << run->id << "' to " << html_path
            << "\n";
  if (!args.option("out-csv").empty()) {
    write_text_file(args.option("out-csv"),
                    report::campaign_report_csv(input));
    std::cout << "wrote report CSV to " << args.option("out-csv") << "\n";
  }
  return 0;
}

/// `report saturation`: render a BENCH_saturation.json sweep (see
/// bench/saturation_sweep.cpp) as the knee chart HTML, plus optional
/// CSV for external plotting.
int cmd_report_saturation(int argc, const char* const* argv) {
  ArgParser args("ftspm_tool report saturation",
                 "render a saturation sweep artefact as the knee chart");
  args.add_option("in", "the sweep artefact", "BENCH_saturation.json");
  args.add_option("html", "HTML output path", "ftspm_saturation.html");
  args.add_option("out-csv", "also write the flat CSV to FILE", "");
  args.parse(argc, argv, 3);
  FTSPM_REQUIRE(args.positionals().empty(),
                "report saturation takes no further arguments");
  const report::SaturationSweep sweep = report::saturation_from_json(
      parse_json(read_text_file(args.option("in"))));

  const std::string html_path = args.option("html");
  write_text_file(html_path, report::saturation_report_html(sweep));
  const std::size_t knee = report::saturation_knee_index(sweep);
  std::cout << "wrote saturation report (" << sweep.steps.size()
            << " rungs) to " << html_path << "\n";
  if (knee < sweep.steps.size())
    std::cout << "saturation knee at rate " << sweep.steps[knee].rate
              << " req/s per connection (shed "
              << fixed(sweep.steps[knee].shed_rate * 100.0, 1) << "%)\n";
  else
    std::cout << "no saturation knee inside the swept rates\n";
  if (!args.option("out-csv").empty()) {
    write_text_file(args.option("out-csv"),
                    report::saturation_report_csv(sweep));
    std::cout << "wrote saturation CSV to " << args.option("out-csv")
              << "\n";
  }
  return 0;
}

int cmd_report(int argc, const char* const* argv) {
  // Four shapes share the verb: `report` (the historical full-suite
  // CSV export), `report trend`, `report saturation`, and
  // `report <run>` — disambiguated by the first positional so the
  // historical spelling keeps working.
  if (argc > 2) {
    const std::string_view first = argv[2];
    if (first == "trend") return cmd_report_trend(argc, argv);
    if (first == "saturation") return cmd_report_saturation(argc, argv);
    if (!first.empty() && first[0] != '-') return cmd_report_run(argc, argv);
  }
  ArgParser args("ftspm_tool report",
                 "write every table/figure as CSV for external plotting");
  args.add_option("scale", "trace scale divisor for the suite", "1");
  args.add_option("out-dir", "output directory", "ftspm_report");
  args.parse(argc, argv, 2);
  const StructureEvaluator evaluator;
  const std::vector<SuiteRow> rows =
      run_suite_parallel(evaluator, args.option_uint("scale"),
                         jobs_requested(), make_suite_progress(),
                         session_obs());
  for (const std::string& path : write_all_csv(
           evaluator, rows, args.option("out-dir"), session_obs()))
    std::cout << "wrote " << path << "\n";
  return 0;
}

int cmd_campaign(int argc, const char* const* argv) {
  ArgParser args("ftspm_tool campaign",
                 "Monte-Carlo strike campaign on one protected surface");
  args.add_option("protection", "parity|secded|none", "secded");
  args.add_option("strikes", "number of simulated strikes", "100000");
  args.add_option("interleave", "physical bit interleaving degree", "1");
  args.add_option("node", "process node in nm (multiplicity model)", "40");
  args.add_option("size", "surface payload size in bytes", "8192");
  args.add_option("occupancy", "ACE occupancy of the surface [0,1]", "1.0");
  args.add_option("shards", "campaign shards (0 = one per job)", "0");
  args.add_option("checkpoint", "write resumable progress to FILE", "");
  args.add_option("resume", "resume from a checkpoint FILE", "");
  args.add_option("checkpoint-interval",
                  "strikes between checkpoint writes", "1048576");
  args.add_flag("recover", "repair demand-read errors (live-array mode)");
  args.add_option("scrub-interval",
                  "strikes between scrub sweeps (0 = no scrubbing)", "0");
  args.add_option("dirty-fraction",
                  "probability a DUE word is dirty (unrecoverable)", "0.25");
  args.add_option("refetch-words", "words per DUE re-fetch transfer", "64");
  args.add_option("sensitivity-out",
                  "write the per-region fault-sensitivity grid CSV to FILE",
                  "");
  args.add_option("sensitivity-buckets",
                  "address buckets per region in the sensitivity grid", "64");
  args.add_flag("json", "emit machine-readable JSON");
  args.add_flag("csv", "emit a single-row CSV");
  args.add_flag("time", "report wall-clock time and strikes/sec (stderr)");
  args.parse(argc, argv, 2);

  serve::CampaignSpec spec;
  spec.protection = args.option("protection");
  spec.strikes = args.option_uint("strikes", serve::kMaxSpecCount);
  spec.size = args.option_uint("size", serve::kMaxSpecSize);
  spec.interleave = static_cast<std::uint32_t>(
      args.option_uint("interleave", serve::kMaxSpecInterleave));
  spec.node = args.option_double("node");
  spec.occupancy = args.option_double("occupancy", 0.0, 1.0);
  spec.recover = args.flag("recover");
  spec.scrub_interval =
      args.option_uint("scrub-interval", serve::kMaxSpecCount);
  spec.dirty_fraction = args.option_double("dirty-fraction", 0.0, 1.0);
  spec.refetch_words =
      args.option_uint("refetch-words", serve::kMaxSpecRefetchWords);

  obs::Context* obs = session_obs();
  serve::CampaignRunHooks hooks;
  hooks.jobs = jobs_requested();
  hooks.obs = obs;
  const std::uint64_t shards =
      args.option_uint("shards", serve::kMaxSpecShards);
  spec.shards = shards == 0 ? hooks.effective_jobs()
                            : static_cast<std::uint32_t>(shards);
  hooks.checkpoint_path = args.option("checkpoint");
  hooks.resume_path = args.option("resume");
  hooks.checkpoint_interval = args.option_uint("checkpoint-interval");
  if (g_session != nullptr) {
    hooks.heartbeat.out_path = g_session->options().heartbeat_out;
    hooks.heartbeat.interval_ms = g_session->options().heartbeat_interval_ms;
    hooks.heartbeat.stderr_line = progress_requested();
  }
  if (progress_requested()) {
    spec.heartbeat_strikes = std::max<std::uint64_t>(1, spec.strikes / 20);
    const auto start = std::chrono::steady_clock::now();
    hooks.progress = [start](std::uint64_t done, std::uint64_t total) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      const double eta = done ? elapsed / static_cast<double>(done) *
                                    static_cast<double>(total - done)
                              : 0.0;
      std::cerr << "strikes " << done << "/" << total << "  ("
                << percent(static_cast<double>(done) /
                           static_cast<double>(total))
                << ", ETA " << fixed(eta, 1) << "s)\n";
    };
  }

  // Sensitivity grid: opt-in via --sensitivity-out. The grid never
  // affects counters or RNG draws, and the sharded runner merges its
  // per-shard grids in shard order, so the CSV is byte-identical for a
  // fixed (seed, strikes, shard count) whatever --jobs says.
  const std::string sensitivity_out = args.option("sensitivity-out");
  const std::uint32_t sensitivity_buckets = static_cast<std::uint32_t>(
      args.option_uint("sensitivity-buckets", 1u << 20));
  FTSPM_REQUIRE(sensitivity_buckets > 0,
                "--sensitivity-buckets must be positive");
  if (!sensitivity_out.empty()) hooks.sensitivity_buckets = sensitivity_buckets;

  serve::CampaignOutcome outcome;
  // --time books the run into a wall timer of its own; the reading
  // happens after the scope closes the span.
  obs::Registry timers;
  {
    const obs::ScopedTimer span(args.flag("time") ? &timers : nullptr,
                                "campaign.wall");
    outcome = serve::run_campaign_spec(spec, hooks);
  }
  // Informational only, and on stderr: stdout must stay byte-identical
  // for a given (seed, strikes, shard count) whatever --jobs says.
  std::cerr << "shards " << outcome.used_shards << ", jobs "
            << outcome.used_jobs << "\n";
  if (!sensitivity_out.empty()) {
    // Labelled registry entries first, so a --metrics-out snapshot
    // written at session end carries the per-region outcome breakdown.
    emit_sensitivity_metrics(outcome.sensitivity,
                             outcome.recovery_active ? "recovery" : "static",
                             obs != nullptr ? &obs->registry : nullptr);
    write_text_file(sensitivity_out, outcome.sensitivity.to_csv());
    std::cerr << "wrote sensitivity grid to " << sensitivity_out << "\n";
  }
  if (args.flag("time")) {
    // Wall time is machine-dependent, so like the shard note it goes to
    // stderr: stdout stays byte-identical run to run.
    const obs::TimerStat& wall = timers.timer("campaign.wall");
    const double seconds = static_cast<double>(wall.total_ns()) * 1e-9;
    const double rate = seconds > 0.0
                            ? static_cast<double>(spec.strikes) / seconds
                            : 0.0;
    std::cerr << "wall time " << fixed(seconds * 1e3, 3) << " ms, "
              << with_commas(static_cast<std::uint64_t>(rate))
              << " strikes/sec\n";
  }
  const CampaignResult& r = outcome.result.strikes;
  const RecoveryCounters* rec =
      outcome.recovery_active ? &outcome.result.recovery : nullptr;

  if (obs::EventLog* events = obs != nullptr ? obs->events : nullptr) {
    std::vector<obs::TraceArg> fields;
    fields.push_back(obs::TraceArg::str("protection", spec.protection));
    fields.push_back(obs::TraceArg::num("seed", spec.seed));
    fields.push_back(obs::TraceArg::num(
        "shards", static_cast<std::uint64_t>(outcome.used_shards)));
    fields.push_back(obs::TraceArg::num("strikes", r.strikes));
    fields.push_back(obs::TraceArg::num("masked", r.masked));
    fields.push_back(obs::TraceArg::num("dre", r.dre));
    fields.push_back(obs::TraceArg::num("due", r.due));
    fields.push_back(obs::TraceArg::num("sdc", r.sdc));
    fields.push_back(obs::TraceArg::num("vulnerability", r.vulnerability()));
    if (rec != nullptr) {
      fields.push_back(obs::TraceArg::num("corrections", rec->corrections));
      fields.push_back(
          obs::TraceArg::num("scrub_corrections", rec->scrub_corrections));
      fields.push_back(obs::TraceArg::num("refetches", rec->refetches));
      fields.push_back(obs::TraceArg::num("unrecoverable", rec->unrecoverable));
      fields.push_back(
          obs::TraceArg::num("recovery_cycles", rec->recovery_cycles));
    }
    events->emit("campaign_summary", r.strikes, std::move(fields));
  }

  append_run_record(serve::campaign_spec_record(spec, outcome));

  if (args.flag("json")) {
    const CampaignTiming timing{outcome.wall_ms, outcome.strikes_per_sec};
    std::cout << campaign_json(r, rec,
                               RunManifest{"ftspm_tool campaign",
                                           spec.protection, 1, spec.seed},
                               args.flag("time") ? &timing : nullptr)
              << "\n";
    return 0;
  }
  if (args.flag("csv")) {
    std::cout << campaign_csv(r, rec);
    return 0;
  }
  std::cout << "strikes: " << with_commas(r.strikes) << "\n"
            << "masked:  " << percent(r.fraction(r.masked)) << "\n"
            << "DRE:     " << percent(r.fraction(r.dre)) << "\n"
            << "DUE:     " << percent(r.fraction(r.due)) << "\n"
            << "SDC:     " << percent(r.fraction(r.sdc)) << "\n"
            << "vulnerability (DUE+SDC): " << percent(r.vulnerability())
            << "\n";
  if (rec != nullptr) {
    std::cout << "demand reads:  " << with_commas(rec->demand_reads) << "\n"
              << "corrections:   " << with_commas(rec->corrections)
              << "  (+" << with_commas(rec->scrub_corrections)
              << " by scrub over " << with_commas(rec->scrub_passes)
              << " passes)\n"
              << "re-fetches:    " << with_commas(rec->refetches) << "\n"
              << "unrecoverable: " << with_commas(rec->unrecoverable) << "\n"
              << "recovery cost: " << with_commas(rec->recovery_cycles)
              << " cycles, "
              << si_string(rec->recovery_energy_pj * 1e-12, "J") << "\n";
  }
  return 0;
}

int cmd_stats(int argc, const char* const* argv) {
  ArgParser args("ftspm_tool stats",
                 "per-phase cycle and energy breakdown of one run");
  add_common_options(args);
  args.add_option("structure", "ftspm|sram|stt", "ftspm");
  args.parse(argc, argv, 2);
  FTSPM_REQUIRE(args.positionals().size() == 1, "expected one workload name");
  const Workload w =
      resolve_workload(args.positionals()[0], args.option_uint("scale"));
  const ProgramProfile prof = profile_workload(w);
  const StructureEvaluator evaluator(TechnologyLibrary(),
                                     mda_config_from(args));

  // Phase attribution is only collected by a run handed a context: the
  // session's, or a local one nobody writes out.
  obs::Context local;
  obs::Context* obs = session_obs() != nullptr ? session_obs() : &local;
  const std::string structure = args.option("structure");
  const SystemResult r = [&] {
    if (structure == "ftspm") return evaluator.evaluate_ftspm(w, prof, obs);
    if (structure == "sram") return evaluator.evaluate_pure_sram(w, prof, obs);
    if (structure == "stt") return evaluator.evaluate_pure_stt(w, prof, obs);
    throw InvalidArgument("unknown structure '" + structure + "'");
  }();

  AsciiTable t({"Phase", "Cycles", "Compute", "SPM", "Cache", "DRAM", "DMA",
                "Accesses", "Energy (uJ)"});
  t.set_align(0, Align::Left);
  PhaseStats total;
  total.name = "total";
  for (const PhaseStats& p : r.run.phases) {
    t.add_row({p.name, with_commas(p.total_cycles()),
               with_commas(p.compute_cycles), with_commas(p.spm_cycles),
               with_commas(p.cache_cycles),
               with_commas(p.dram_penalty_cycles), with_commas(p.dma_cycles),
               with_commas(p.accesses), fixed(p.energy_pj() / 1e6, 2)});
    total.compute_cycles += p.compute_cycles;
    total.spm_cycles += p.spm_cycles;
    total.cache_cycles += p.cache_cycles;
    total.dram_penalty_cycles += p.dram_penalty_cycles;
    total.dma_cycles += p.dma_cycles;
    total.accesses += p.accesses;
    total.spm_energy_pj += p.spm_energy_pj;
    total.cache_energy_pj += p.cache_energy_pj;
    total.dram_energy_pj += p.dram_energy_pj;
  }
  t.add_row({total.name, with_commas(total.total_cycles()),
             with_commas(total.compute_cycles),
             with_commas(total.spm_cycles), with_commas(total.cache_cycles),
             with_commas(total.dram_penalty_cycles),
             with_commas(total.dma_cycles), with_commas(total.accesses),
             fixed(total.energy_pj() / 1e6, 2)});
  std::cout << t.render();
  std::cout << "run total: " << with_commas(r.run.total_cycles)
            << " cycles, "
            << si_string(r.run.total_dynamic_energy_pj() * 1e-12, "J")
            << " dynamic\n";
  return 0;
}

int cmd_export(int argc, const char* const* argv) {
  ArgParser args("ftspm_tool export",
                 "write a workload out in the trace text format");
  args.add_option("scale", "trace scale divisor", "1");
  args.add_option("out", "output path ('-' = stdout)", "-");
  args.parse(argc, argv, 2);
  FTSPM_REQUIRE(args.positionals().size() == 1, "expected one workload name");
  const Workload w =
      resolve_workload(args.positionals()[0], args.option_uint("scale"));
  if (args.option("out") == "-") {
    write_workload(std::cout, w);
    std::cout.flush();
    if (!std::cout.good()) throw Error("write to stdout failed");
  } else {
    save_workload(w, args.option("out"));
    std::cout << "wrote " << w.trace.size() << " events ("
              << with_commas(w.total_accesses()) << " accesses) to "
              << args.option("out") << "\n";
  }
  return 0;
}

int cmd_runs(int argc, const char* const* argv) {
  ArgParser args("ftspm_tool runs", "inspect the run ledger");
  args.add_option("last", "show only the last N runs (0 = all)", "0");
  args.parse(argc, argv, 2);
  FTSPM_REQUIRE(args.positionals().size() == 1 &&
                    args.positionals()[0] == "list",
                "expected `runs list`");
  const std::string path = ledger_path_or_default();
  // Lenient scan: a browsing command should list every run that did
  // parse, not die on the first truncated line (compare stays strict).
  const obs::LedgerScan scan = obs::scan_ledger(path);
  for (const std::string& warning : scan.warnings)
    std::cerr << "warning: " << warning << "\n";
  const std::vector<obs::LedgerRecord>& runs = scan.records;
  if (runs.empty()) {
    std::cout << "ledger " << path << " has no runs\n";
    return 0;
  }
  const std::uint64_t last = args.option_uint("last");
  const std::size_t first =
      last != 0 && last < runs.size() ? runs.size() - last : 0;
  AsciiTable t({"#", "Id", "Command", "Workload", "Seed", "Shards", "Jobs",
                "Counters", "Wall ms"});
  t.set_align(1, Align::Left);
  t.set_align(2, Align::Left);
  t.set_align(3, Align::Left);
  for (std::size_t i = first; i < runs.size(); ++i) {
    const obs::LedgerRecord& r = runs[i];
    t.add_row({std::to_string(i), r.id, r.command, r.workload,
               std::to_string(r.seed), std::to_string(r.shards),
               std::to_string(r.jobs), std::to_string(r.counters.size()),
               fixed(r.wall_ms, 1)});
  }
  std::cout << t.render();
  return 0;
}

int cmd_compare(int argc, const char* const* argv) {
  ArgParser args("ftspm_tool compare",
                 "diff two ledger runs; nonzero exit on regression");
  args.add_option("threshold",
                  "tolerated |relative delta| in percent (0 = exact)", "0");
  args.add_option("metric", "gate only this counter/metric (default: all)",
                  "");
  args.parse(argc, argv, 2);
  FTSPM_REQUIRE(args.positionals().size() == 2,
                "expected two run references (id or index)");
  const std::string path = ledger_path_or_default();
  const std::vector<obs::LedgerRecord> runs = obs::read_ledger(path);
  const obs::LedgerRecord* a = obs::find_run(runs, args.positionals()[0]);
  const obs::LedgerRecord* b = obs::find_run(runs, args.positionals()[1]);
  if (a == nullptr)
    throw InvalidArgument("run '" + args.positionals()[0] + "' not found in " +
                          path);
  if (b == nullptr)
    throw InvalidArgument("run '" + args.positionals()[1] + "' not found in " +
                          path);
  CompareOptions options;
  options.threshold_pct = args.option_double("threshold", 0.0, 1e6);
  options.metric = args.option("metric");
  const CompareReport report = compare_runs(*a, *b, options);
  std::cout << report.render();
  return report.regression ? 1 : 0;
}

/// The daemon a SIGINT/SIGTERM should drain, published by cmd_serve
/// before the handlers are installed. request_stop() is async-signal-
/// safe (one byte down the wake pipe), so the handler may call it.
std::atomic<serve::Server*> g_serve_daemon{nullptr};

void serve_signal_handler(int) {
  if (serve::Server* daemon = g_serve_daemon.load()) daemon->request_stop();
}

int cmd_serve(int argc, const char* const* argv) {
  ArgParser args("ftspm_tool serve",
                 "long-running campaign daemon (NDJSON over a socket)");
  args.add_option("socket", "unix-domain socket path to bind", "ftspm.sock");
  args.add_option("tcp", "also listen on 127.0.0.1:PORT (0 = unix only)",
                  "0");
  args.add_option("max-queue",
                  "admission queue bound; a full queue answers "
                  "error(overloaded)",
                  "16");
  args.add_option("max-connections",
                  "concurrent client connections before shedding", "64");
  args.add_option("max-frame-bytes", "per-request NDJSON frame cap",
                  "1048576");
  args.add_option("telemetry-out",
                  "append periodic NDJSON registry snapshots to FILE", "");
  args.add_option("telemetry-interval-ms",
                  "ms between telemetry snapshots (1000)", "1000");
  args.parse(argc, argv, 2);
  FTSPM_REQUIRE(args.positionals().empty(),
                "serve takes no positional arguments");

  serve::ServerConfig cfg;
  cfg.socket_path = args.option("socket");
  cfg.tcp_port = static_cast<std::uint16_t>(args.option_uint("tcp", 65535));
  cfg.max_queue = args.option_uint("max-queue", 1u << 20);
  FTSPM_REQUIRE(cfg.max_queue > 0, "--max-queue must be positive");
  cfg.max_connections = args.option_uint("max-connections", 65536);
  FTSPM_REQUIRE(cfg.max_connections > 0,
                "--max-connections must be positive");
  cfg.max_frame_bytes = static_cast<std::size_t>(
      args.option_uint("max-frame-bytes", 1u << 30));
  FTSPM_REQUIRE(cfg.max_frame_bytes >= 1024,
                "--max-frame-bytes must be at least 1024");
  cfg.telemetry_path = args.option("telemetry-out");
  cfg.telemetry_interval_ms = static_cast<std::uint32_t>(
      args.option_uint("telemetry-interval-ms", 3600u * 1000u));
  FTSPM_REQUIRE(cfg.telemetry_interval_ms > 0,
                "--telemetry-interval-ms must be positive");
  cfg.jobs = jobs_requested();
  if (g_session != nullptr) {
    cfg.ledger_path = g_session->options().ledger;
    // The daemon records request-lifecycle spans in wall-clock time;
    // the session's simulated-time sink would record nothing useful.
    cfg.trace_path = g_session->take_trace_out();
    cfg.obs = g_session->context();
  }

  serve::Server server(cfg);
  server.start();
  g_serve_daemon.store(&server);
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  std::cerr << "serving on " << cfg.socket_path;
  if (cfg.tcp_port != 0)
    std::cerr << " and 127.0.0.1:" << server.bound_tcp_port();
  std::cerr << "  (jobs " << cfg.jobs << ", queue " << cfg.max_queue
            << "); SIGTERM drains and exits\n";
  server.wait();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_serve_daemon.store(nullptr);
  const serve::ServerStatus st = server.status();
  std::cerr << "daemon drained: " << st.completed << " completed, "
            << st.rejected_overload << " shed, " << st.cancelled
            << " cancelled, " << st.failed << " failed\n";
  if (!cfg.trace_path.empty())
    std::cerr << "wrote request trace to " << cfg.trace_path << "\n";
  if (!cfg.telemetry_path.empty())
    std::cerr << "wrote telemetry to " << cfg.telemetry_path << "\n";
  return 0;
}

/// `serve-status`: one-shot liveness/telemetry probe of a running
/// daemon — a status frame and a metrics frame over one connection.
/// Exit 2 when the daemon is unreachable, so scripts can distinguish
/// "daemon down" from "probe bug".
int cmd_serve_status(int argc, const char* const* argv) {
  ArgParser args("ftspm_tool serve-status",
                 "query a running daemon's status and metrics frames");
  args.add_option("socket", "daemon unix socket path", "ftspm.sock");
  args.add_option("tcp", "connect to 127.0.0.1:PORT instead", "0");
  args.add_flag("json", "emit the raw frames (status line, metrics line)");
  args.parse(argc, argv, 2);
  FTSPM_REQUIRE(args.positionals().empty(),
                "serve-status takes no positional arguments");
  const std::uint16_t tcp =
      static_cast<std::uint16_t>(args.option_uint("tcp", 65535));

  std::optional<serve::Client> client;
  try {
    client = tcp != 0 ? serve::Client::connect_tcp(tcp)
                      : serve::Client::connect_unix(args.option("socket"));
  } catch (const std::exception& e) {
    std::cerr << "serve-status: " << e.what() << "\n";
    return 2;
  }
  client->send_line(serve::status_request());
  client->send_line(serve::metrics_request());
  // The daemon answers a single connection's frames in request order.
  const JsonValue status = client->next_frame();
  const JsonValue metrics = client->next_frame();

  if (args.flag("json")) {
    std::cout << status.dump() << "\n" << metrics.dump() << "\n";
    return 0;
  }
  const auto num = [](const JsonValue& v, std::string_view key) {
    const JsonValue* f = v.find(key);
    return f != nullptr && f->is_number() ? f->number : 0.0;
  };
  const JsonValue* accepting = status.find("accepting");
  std::cout << "daemon "
            << (accepting != nullptr && accepting->is_bool() &&
                        accepting->boolean
                    ? "accepting"
                    : "draining")
            << "  (uptime " << fixed(num(metrics, "uptime_ms") / 1000.0, 1)
            << " s)\n"
            << "  queued " << num(status, "queued") << ", running "
            << num(status, "running") << " (max queue "
            << num(status, "max_queue") << ", jobs " << num(status, "jobs")
            << ")\n"
            << "  admitted " << num(status, "admitted") << ", completed "
            << num(status, "completed") << ", shed "
            << num(status, "rejected_overload") << ", cancelled "
            << num(status, "cancelled") << ", failed "
            << num(status, "failed") << "\n";
  if (const JsonValue* registry = metrics.find("registry")) {
    const JsonValue* gauges = registry->find("gauges");
    const JsonValue* depth =
        gauges != nullptr ? gauges->find("serve.queue_depth") : nullptr;
    if (depth != nullptr && depth->is_number())
      std::cout << "  queue depth gauge " << depth->number << "\n";
  }
  return 0;
}

int cmd_load(int argc, const char* const* argv) {
  ArgParser args("ftspm_tool load",
                 "YCSB-style load injector for a running serve daemon");
  args.add_option("socket", "daemon unix socket path", "ftspm.sock");
  args.add_option("tcp", "connect to 127.0.0.1:PORT instead", "0");
  args.add_option("connections", "concurrent client connections", "2");
  args.add_option("requests", "total requests across all connections",
                  "16");
  args.add_option("mix",
                  "request mix: name:weight[:strikes],... "
                  "(default: built-in small/medium/large)",
                  "");
  args.add_option("rate",
                  "open-loop arrival rate per connection in req/sec "
                  "(0 = closed loop)",
                  "0");
  args.add_option("seed", "mix RNG seed (reproducible request sequence)",
                  "1");
  args.add_option("fail-on-shed",
                  "exit 1 when the shed rate exceeds PCT percent "
                  "(-1 = never)",
                  "-1");
  args.add_flag("quick", "shrink the built-in mix for smoke tests");
  args.add_flag("json", "emit the machine-readable report");
  args.add_flag("csv", "emit the per-class CSV report");
  args.parse(argc, argv, 2);
  FTSPM_REQUIRE(args.positionals().empty(),
                "load takes no positional arguments");
  const double fail_on_shed = args.option_double("fail-on-shed", -1.0, 100.0);

  serve::LoadConfig cfg;
  cfg.socket_path = args.option("socket");
  cfg.tcp_port = static_cast<std::uint16_t>(args.option_uint("tcp", 65535));
  cfg.connections =
      static_cast<std::uint32_t>(args.option_uint("connections", 1024));
  FTSPM_REQUIRE(cfg.connections > 0, "--connections must be positive");
  cfg.requests = args.option_uint("requests", 1u << 20);
  cfg.rate = args.option_double("rate", 0.0, 1e9);
  cfg.seed = args.option_uint("seed");
  const std::string mix = args.option("mix");
  cfg.classes = mix.empty() ? serve::default_mix(args.flag("quick"))
                            : serve::parse_mix(mix);

  const serve::LoadReport report = serve::run_load(cfg);
  if (obs::Context* obs = session_obs()) {
    // The per-class latency families go into the session's registry,
    // so a --metrics-out snapshot carries them.
    for (const serve::ClassStats& c : report.classes)
      obs->registry
          .histogram("load.latency_ms", obs::LabelSet{{"class", c.name}},
                     serve::load_latency_bounds())
          .merge_from(c.latency_ms);
  }

  if (args.flag("json")) {
    std::cout << report.to_json() << "\n";
  } else if (args.flag("csv")) {
    std::cout << report.to_csv();
  } else {
    std::cout << "sent " << report.sent << ", completed " << report.completed
              << ", overloaded " << report.overloaded << " ("
              << fixed(report.shed_rate() * 100.0, 1) << "% shed), errors "
              << report.errors << "  (" << fixed(report.wall_ms, 1)
              << " ms wall)\n";
    for (const serve::ClassStats& c : report.classes) {
      std::cout << "  " << c.name << ": sent " << c.sent << ", completed "
                << c.completed << ", overloaded " << c.overloaded
                << ", p50 " << fixed(c.latency_ms.quantile(0.50), 2)
                << " ms, p95 " << fixed(c.latency_ms.quantile(0.95), 2)
                << " ms, p99 " << fixed(c.latency_ms.quantile(0.99), 2)
                << " ms\n";
    }
  }
  // A load run that saw transport-level errors (daemon died mid-run)
  // exits nonzero. Shed (overloaded) requests are expected behaviour
  // under pressure and do not fail the run by default; --fail-on-shed
  // turns the shed rate into a gate for CI-style smoke checks.
  if (report.errors > 0) return 1;
  if (fail_on_shed >= 0.0 && report.shed_rate() * 100.0 > fail_on_shed) {
    std::cerr << "shed rate " << fixed(report.shed_rate() * 100.0, 2)
              << "% exceeds --fail-on-shed " << fixed(fail_on_shed, 2)
              << "%\n";
    return 1;
  }
  return 0;
}

void print_usage(std::ostream& os) {
  os << "ftspm_tool — FTSPM reproduction driver\n"
        "commands:\n"
        "  list                     list available workloads\n"
        "  profile  <workload>      Table-I-style profile (--csv)\n"
        "  map      <workload>      MDA mapping (Table II)\n"
        "  simulate <workload>      one structure end to end\n"
        "  evaluate <workload>      all three structures\n"
        "  stats    <workload>      per-phase cycle/energy breakdown\n"
        "  schedule <workload>      on-line phase transfer commands\n"
        "  suite                    full 12-benchmark sweep\n"
        "  campaign                 Monte-Carlo strike campaign\n"
        "                           (--shards/--checkpoint/--resume;\n"
        "                           --recover/--scrub-interval for the\n"
        "                           live-array recovery mode;\n"
        "                           --sensitivity-out for the per-region\n"
        "                           fault heatmap grid; --json/--csv)\n"
        "  export   <workload>      dump the trace text format\n"
        "  report                   write all tables/figures as CSV\n"
        "  report   <run>           render one ledger run as HTML\n"
        "                           (--metrics/--sensitivity/--html/\n"
        "                           --out-csv)\n"
        "  report   trend           ledger trajectories (--csv)\n"
        "  report   saturation      knee chart from a saturation sweep\n"
        "                           artefact (--in/--html/--out-csv; see\n"
        "                           bench/saturation_sweep)\n"
        "  partition w1[:wt] w2...  multi-task SPM partitioning\n"
        "  reuse    <workload>      LRU reuse-distance analysis\n"
        "  runs list                list the run ledger (see --ledger;\n"
        "                           --last N for the tail)\n"
        "  compare  <runA> <runB>   diff two ledger runs; exits 1 on a\n"
        "                           regression (--threshold/--metric)\n"
        "  serve                    campaign daemon: NDJSON requests over\n"
        "                           a unix socket (--socket/--tcp/\n"
        "                           --max-queue/--telemetry-out;\n"
        "                           --jobs/--ledger/--trace-out apply;\n"
        "                           see docs/serving.md)\n"
        "  serve-status             one-shot status + metrics probe of a\n"
        "                           running daemon (--socket/--tcp/\n"
        "                           --json; exit 2 when unreachable)\n"
        "  load                     drive a running daemon with a YCSB-\n"
        "                           style mix (--connections/--requests/\n"
        "                           --mix/--rate/--fail-on-shed;\n"
        "                           --json/--csv report)\n"
        "  help                     print this message\n"
        "global options (any command, any position):\n"
        "  --trace-out FILE         Chrome trace-event JSON of the run\n"
        "  --metrics-out FILE       metrics registry snapshot as JSON\n"
        "  --events-out FILE        structured NDJSON event log\n"
        "  --heartbeat-out FILE     live NDJSON heartbeats (campaign)\n"
        "  --heartbeat-interval-ms N  ms between heartbeats (1000)\n"
        "  --ledger FILE            append this run to an NDJSON ledger\n"
        "                           (campaign/suite); also the file read\n"
        "                           by runs/compare (ledger.jsonl)\n"
        "  --run-id NAME            ledger record id (run-<index>)\n"
        "  --progress               progress on stderr (suite/report/\n"
        "                           campaign)\n"
        "  --jobs N                 worker threads for suite/report/\n"
        "                           campaign (1 = serial, 0 = auto)\n"
        "workloads: case_study, any suite benchmark, or a path to a\n"
        "           .trace file (see `export`).\n"
        "subcommand options are listed in this source file's header\n"
        "comment.\n";
}

int dispatch(int argc, const char* const* argv) {
  if (argc < 2) {
    print_usage(std::cerr);
    return 2;
  }
  GlobalOptions globals;
  const std::vector<std::string> rest =
      extract_global_options(argc, argv, globals);
  std::vector<const char*> rest_argv;
  rest_argv.reserve(rest.size());
  for (const std::string& s : rest) rest_argv.push_back(s.c_str());
  const int rest_argc = static_cast<int>(rest_argv.size());
  if (rest_argc < 2) {
    print_usage(std::cerr);
    return 2;
  }
  const std::string cmd = rest_argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    print_usage(std::cout);
    return 0;
  }

  ObsSession session(globals);
  g_session = &session;
  if (obs::Context* obs = session.context();
      obs != nullptr && obs->events != nullptr) {
    obs->events->emit(
        "run_manifest", 0,
        {obs::TraceArg::str("command", "ftspm_tool " + cmd),
         obs::TraceArg::str("library_version", kLibraryVersion)});
  }
  const char* const* av = rest_argv.data();
  int rc = -1;
  if (cmd == "list") rc = cmd_list();
  else if (cmd == "profile") rc = cmd_profile(rest_argc, av);
  else if (cmd == "map") rc = cmd_map(rest_argc, av);
  else if (cmd == "simulate") rc = cmd_simulate(rest_argc, av);
  else if (cmd == "evaluate") rc = cmd_evaluate(rest_argc, av);
  else if (cmd == "stats") rc = cmd_stats(rest_argc, av);
  else if (cmd == "schedule") rc = cmd_schedule(rest_argc, av);
  else if (cmd == "suite") rc = cmd_suite(rest_argc, av);
  else if (cmd == "campaign") rc = cmd_campaign(rest_argc, av);
  else if (cmd == "export") rc = cmd_export(rest_argc, av);
  else if (cmd == "report") rc = cmd_report(rest_argc, av);
  else if (cmd == "partition") rc = cmd_partition(rest_argc, av);
  else if (cmd == "reuse") rc = cmd_reuse(rest_argc, av);
  else if (cmd == "runs") rc = cmd_runs(rest_argc, av);
  else if (cmd == "compare") rc = cmd_compare(rest_argc, av);
  else if (cmd == "serve") rc = cmd_serve(rest_argc, av);
  else if (cmd == "serve-status") rc = cmd_serve_status(rest_argc, av);
  else if (cmd == "load") rc = cmd_load(rest_argc, av);
  else {
    g_session = nullptr;
    std::cerr << "unknown command '" << cmd << "'\n";
    print_usage(std::cerr);
    return 2;
  }
  session.finish();
  g_session = nullptr;
  return rc;
}

}  // namespace
}  // namespace ftspm

int main(int argc, char** argv) {
  try {
    return ftspm::dispatch(argc, argv);
  } catch (const ftspm::InvalidArgument& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::cerr << "run `ftspm_tool help` for usage\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
