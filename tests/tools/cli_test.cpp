// Drives the real ftspm_tool binary (path injected by CMake as
// FTSPM_TOOL_PATH) and checks the CLI contract: exit codes, usage on
// stderr for misuse, and the observability outputs.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ftspm/obs/ledger.h"
#include "ftspm/serve/campaign_spec.h"
#include "ftspm/util/json.h"

namespace ftspm {
namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;  ///< Interleaved stdout+stderr.
};

CommandResult run_command(const std::string& cmd) {
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  CommandResult r;
  if (pipe == nullptr) return r;
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
    r.output.append(buf.data(), n);
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

CommandResult run_tool(const std::string& args) {
  return run_command(std::string(FTSPM_TOOL_PATH) + " " + args + " 2>&1");
}

/// Like run_tool but discards stderr — for byte-identity comparisons
/// where informational stderr (progress, shard/job counts) may differ.
CommandResult run_tool_stdout(const std::string& args) {
  return run_command(std::string(FTSPM_TOOL_PATH) + " " + args +
                     " 2>/dev/null");
}

/// Like run_tool but keeps stderr alone.
CommandResult run_tool_stderr(const std::string& args) {
  return run_command(std::string(FTSPM_TOOL_PATH) + " " + args +
                     " 2>&1 >/dev/null");
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string temp_path(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

TEST(CliTest, HelpExitsZeroAndListsCommands) {
  const CommandResult r = run_tool("help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("commands:"), std::string::npos);
  EXPECT_NE(r.output.find("stats"), std::string::npos);
  EXPECT_NE(r.output.find("--trace-out"), std::string::npos);
  EXPECT_EQ(run_tool("--help").exit_code, 0);
}

TEST(CliTest, UnknownCommandFailsWithUsage) {
  const CommandResult r = run_tool("frobnicate");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown command 'frobnicate'"),
            std::string::npos);
  EXPECT_NE(r.output.find("commands:"), std::string::npos);
}

TEST(CliTest, NoArgumentsFailsWithUsage) {
  const CommandResult r = run_tool("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("commands:"), std::string::npos);
}

TEST(CliTest, UnknownFlagFailsNonzero) {
  const CommandResult r = run_tool("simulate case_study --bogus-flag");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("error:"), std::string::npos);
}

TEST(CliTest, BadFlagValuePrintsTheMessageAlone) {
  // A user-input error names the flag and the value; the checker's
  // source path, line and condition are for programmer errors only.
  const CommandResult r = run_command(
      std::string(FTSPM_TOOL_PATH) + " reuse crc32 --scale -8 2>&1 >/dev/null");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_EQ(r.output,
            "error: --scale expects a non-negative integer, got '-8'\n"
            "run `ftspm_tool help` for usage\n");
}

TEST(CliTest, UnknownWorkloadFailsNonzero) {
  const CommandResult r = run_tool("profile no_such_workload");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown workload"), std::string::npos);
}

TEST(CliTest, StatsPrintsPhaseBreakdown) {
  const CommandResult r = run_tool("stats case_study --scale 32");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("Phase"), std::string::npos);
  EXPECT_NE(r.output.find("(top)"), std::string::npos);
  EXPECT_NE(r.output.find("total"), std::string::npos);
  EXPECT_NE(r.output.find("Energy"), std::string::npos);
}

TEST(CliTest, TraceOutWritesChromeTraceJson) {
  const std::string path = temp_path("ftspm_cli_trace.json");
  std::remove(path.c_str());
  // Scale 8 keeps the run small but still forces capacity evictions.
  const CommandResult r = run_tool("simulate case_study --scale 8 " +
                                   std::string("--trace-out ") + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty());
  const JsonValue doc = parse_json(text);
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  bool saw_dma = false, saw_evict = false, saw_phase = false;
  for (const JsonValue& e : events.array) {
    const JsonValue* name = e.find("name");
    if (name == nullptr) continue;
    if (name->string.rfind("load ", 0) == 0) saw_dma = true;
    if (name->string.rfind("evict ", 0) == 0) saw_evict = true;
    if (e.at("ph").string == "B") saw_phase = true;
  }
  EXPECT_TRUE(saw_dma);
  EXPECT_TRUE(saw_evict);
  EXPECT_TRUE(saw_phase);
  std::remove(path.c_str());
}

TEST(CliTest, MetricsOutIsDeterministicAcrossRuns) {
  const std::string p1 = temp_path("ftspm_cli_metrics1.json");
  const std::string p2 = temp_path("ftspm_cli_metrics2.json");
  const std::string args = "evaluate case_study --scale 32 --metrics-out ";
  EXPECT_EQ(run_tool(args + p1).exit_code, 0);
  EXPECT_EQ(run_tool(args + p2).exit_code, 0);
  const std::string a = slurp(p1);
  const std::string b = slurp(p2);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  const JsonValue doc = parse_json(a);
  EXPECT_NE(doc.at("counters").find("sim.runs"), nullptr);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(CliTest, CampaignStdoutIsJobsInvariant) {
  // Same seed, strikes, and shard count: stdout must be byte-identical
  // whatever --jobs says (the shards/jobs info line goes to stderr,
  // which run_tool_stdout discards).
  const std::string base = "campaign --strikes 20000 --shards 4";
  const CommandResult serial = run_tool_stdout("--jobs 1 " + base);
  const CommandResult parallel = run_tool_stdout("--jobs 8 " + base);
  EXPECT_EQ(serial.exit_code, 0);
  EXPECT_EQ(parallel.exit_code, 0);
  ASSERT_FALSE(serial.output.empty());
  EXPECT_EQ(serial.output, parallel.output);
  EXPECT_NE(serial.output.find("strikes: 20,000"), std::string::npos)
      << serial.output;
}

TEST(CliTest, CampaignDefaultStaysSerialCompatible) {
  // No parallel flags means one shard on one worker: the output, stderr
  // included, must match the explicit spelling.
  const CommandResult plain = run_tool("campaign --strikes 20000");
  const CommandResult one =
      run_tool("--jobs 1 campaign --strikes 20000 --shards 1");
  EXPECT_EQ(plain.exit_code, 0);
  EXPECT_EQ(one.exit_code, 0);
  EXPECT_EQ(plain.output, one.output);
}

/// The done counts of a campaign's --progress lines ("strikes D/T").
std::vector<std::uint64_t> progress_counts(const std::string& args,
                                           std::uint64_t total) {
  const CommandResult r = run_command(std::string(FTSPM_TOOL_PATH) + " " +
                                      args + " --progress 2>&1 >/dev/null");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::vector<std::uint64_t> counts;
  std::istringstream lines(r.output);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("strikes ", 0) != 0) continue;
    const std::size_t slash = line.find('/');
    EXPECT_EQ(std::stoull(line.substr(slash + 1)), total) << line;
    counts.push_back(std::stoull(line.substr(8, slash - 8)));
  }
  return counts;
}

TEST(CliTest, CampaignProgressReportsAtItsOwnInterval) {
  // --progress asks for a line every strikes/20. One shard reports at
  // exactly those counts, not at chunk boundaries.
  std::vector<std::uint64_t> expected;
  for (std::uint64_t done = 10'000; done <= 200'000; done += 10'000)
    expected.push_back(done);
  EXPECT_EQ(progress_counts("campaign --strikes 200000", 200'000), expected);

  // Sharded: aggregated counts stay monotone, with one completion line.
  const std::vector<std::uint64_t> sharded = progress_counts(
      "--jobs 2 campaign --strikes 200000 --shards 4", 200'000);
  ASSERT_FALSE(sharded.empty());
  int completions = 0;
  for (std::size_t i = 1; i < sharded.size(); ++i)
    EXPECT_GE(sharded[i], sharded[i - 1]);
  for (const std::uint64_t done : sharded)
    if (done == 200'000) ++completions;
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(sharded.back(), 200'000u);
}

TEST(CliTest, CampaignCheckpointResumeRoundTrip) {
  const std::string path = temp_path("ftspm_cli_checkpoint.json");
  std::remove(path.c_str());
  const CommandResult whole = run_tool_stdout(
      "--jobs 2 campaign --strikes 20000 --shards 2");
  ASSERT_EQ(whole.exit_code, 0);

  // First leg writes a checkpoint; second leg resumes from it. The
  // tiny interval forces several mid-run writes.
  const CommandResult first = run_tool_stdout(
      "--jobs 2 campaign --strikes 20000 --shards 2 --checkpoint " + path +
      " --checkpoint-interval 1000");
  ASSERT_EQ(first.exit_code, 0);
  ASSERT_FALSE(slurp(path).empty());
  const CommandResult resumed = run_tool_stdout(
      "--jobs 2 campaign --strikes 20000 --shards 2 --resume " + path);
  EXPECT_EQ(resumed.exit_code, 0);
  EXPECT_EQ(resumed.output, whole.output);
  std::remove(path.c_str());
}

TEST(CliTest, BadJobsValueFailsWithUsageExit) {
  const CommandResult r = run_tool("--jobs banana suite --scale 64");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--jobs"), std::string::npos);
}

TEST(CliTest, JobsWithTrailingGarbageFailsWithUsageExit) {
  // std::stoul would silently parse "8x" as 8; the CLI must reject it.
  const CommandResult r = run_tool("--jobs 8x suite --scale 64");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--jobs"), std::string::npos);
  EXPECT_NE(r.output.find("run `ftspm_tool help` for usage"),
            std::string::npos);
}

TEST(CliTest, PartitionBadWeightFailsWithUsageExit) {
  // "jpeg:abc" used to escape as an uncaught std::invalid_argument from
  // std::stod (exit 1, no usage hint); so did a trailing colon.
  for (const char* spec : {"jpeg:abc", "jpeg:", "jpeg:1.5x", "jpeg:-2"}) {
    const CommandResult r =
        run_tool(std::string("partition ") + spec + " --scale 64");
    EXPECT_EQ(r.exit_code, 2) << spec << "\n" << r.output;
    EXPECT_NE(r.output.find("bad weight"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("run `ftspm_tool help` for usage"),
              std::string::npos)
        << r.output;
  }
}

TEST(CliTest, HeartbeatIntervalRejectsGarbageAndZero) {
  // Same contract as --jobs: trailing garbage, signs, and out-of-range
  // values are usage errors (exit 2), never silently truncated.
  for (const char* bad : {"100x", "0", "-5", "1e3", ""}) {
    const CommandResult r =
        run_tool(std::string("--heartbeat-interval-ms ") + "'" + bad +
                 "' campaign --strikes 1000");
    EXPECT_EQ(r.exit_code, 2) << bad << "\n" << r.output;
    EXPECT_NE(r.output.find("--heartbeat-interval-ms"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("run `ftspm_tool help` for usage"),
              std::string::npos)
        << r.output;
  }
}

TEST(CliTest, SensitivityBucketsRejectsGarbageNegativeAndZero) {
  // A signed parse used to accept "-4" here and wrap it through a uint32
  // cast into four billion buckets; pin the strict parse.
  for (const char* bad : {"64x", "-4", "0", "4.5", "9999999999999999999999"}) {
    const CommandResult r = run_tool(
        std::string("campaign --strikes 1000 --sensitivity-buckets ") + bad);
    EXPECT_EQ(r.exit_code, 2) << bad << "\n" << r.output;
    EXPECT_NE(r.output.find("sensitivity-buckets"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("run `ftspm_tool help` for usage"),
              std::string::npos)
        << r.output;
  }
}

TEST(CliTest, ServeFlagsRejectGarbageAndOutOfRange) {
  // All of these must die in flag validation (exit 2) without ever
  // binding a socket.
  const char* cases[] = {"serve --max-queue 4x", "serve --max-queue -1",
                         "serve --max-queue 0", "serve --max-connections 0",
                         "serve --max-frame-bytes 16"};
  for (const char* args : cases) {
    const CommandResult r = run_tool(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("run `ftspm_tool help` for usage"),
              std::string::npos)
        << args << "\n" << r.output;
  }
}

TEST(CliTest, LoadFlagsRejectGarbageAndOutOfRange) {
  // Flag validation happens before any connect, so these exit 2 even
  // with no daemon listening.
  const char* cases[] = {
      "load --connections 0",     "load --connections 2x",
      "load --requests -3",       "load --rate -1",
      "load --rate fast",         "load --rate nan",
      "load --rate inf",          "load --rate 0x1p3",
      "load --rate 1e999",        "load --mix 'small:-1'",
      "load --mix 'small:0'",     "load --mix 'small:nan'",
      "load --mix 'small:inf'",   "load --mix 'small:1:0'",
      "load --mix ':'",           "load --mix 'a:1:500x'"};
  for (const char* args : cases) {
    const CommandResult r = run_tool(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("run `ftspm_tool help` for usage"),
              std::string::npos)
        << args << "\n" << r.output;
  }
}

TEST(CliTest, TelemetryFlagsRejectGarbageAndOutOfRange) {
  const char* cases[] = {"serve --telemetry-interval-ms 0",
                         "serve --telemetry-interval-ms 5x",
                         "serve --telemetry-interval-ms 99999999999",
                         "load --fail-on-shed 101",
                         "load --fail-on-shed -2",
                         "load --fail-on-shed half"};
  for (const char* args : cases) {
    const CommandResult r = run_tool(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("run `ftspm_tool help` for usage"),
              std::string::npos)
        << args << "\n" << r.output;
  }
}

TEST(CliTest, ServeStatusExitsTwoWhenNoDaemonListens) {
  // The one-shot probe's contract for scripts: exit 2 (not a crash,
  // not a hang) when nothing listens on the socket.
  const CommandResult r =
      run_tool("serve-status --socket /tmp/ftspm-cli-no-daemon.sock");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("serve-status:"), std::string::npos) << r.output;
}

TEST(CliTest, TcpIsNotAServeOption) {
  // The daemon listens on its unix socket only.
  for (const char* args :
       {"serve --tcp 7000", "serve-status --tcp 7000", "load --tcp 7000"}) {
    const CommandResult r = run_tool(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("unknown option"), std::string::npos)
        << args << "\n" << r.output;
  }
}

TEST(CliTest, CampaignRecoveryStdoutIsJobsInvariant) {
  const std::string base =
      "campaign --strikes 20000 --shards 4 --occupancy 0.4 --recover "
      "--scrub-interval 2048";
  const CommandResult serial = run_tool_stdout("--jobs 1 " + base);
  const CommandResult parallel = run_tool_stdout("--jobs 8 " + base);
  EXPECT_EQ(serial.exit_code, 0);
  EXPECT_EQ(parallel.exit_code, 0);
  ASSERT_FALSE(serial.output.empty());
  EXPECT_EQ(serial.output, parallel.output);
  EXPECT_NE(serial.output.find("corrections:"), std::string::npos)
      << serial.output;

  // Same for the machine-readable form.
  const CommandResult js = run_tool_stdout("--jobs 1 " + base + " --json");
  const CommandResult jp = run_tool_stdout("--jobs 8 " + base + " --json");
  EXPECT_EQ(js.exit_code, 0);
  EXPECT_EQ(jp.exit_code, 0);
  EXPECT_EQ(js.output, jp.output);
}

TEST(CliTest, CampaignJsonAndCsvCarryRecoveryCounters) {
  const std::string base =
      "campaign --strikes 5000 --recover --scrub-interval 1024 "
      "--occupancy 0.5";
  const CommandResult js = run_tool_stdout(base + " --json");
  ASSERT_EQ(js.exit_code, 0);
  const JsonValue doc = parse_json(js.output);
  EXPECT_EQ(doc.at("manifest").at("command").string, "ftspm_tool campaign");
  const JsonValue& strikes = doc.at("strikes");
  EXPECT_DOUBLE_EQ(strikes.at("total").number, 5000.0);
  const JsonValue& recovery = doc.at("recovery");
  EXPECT_GT(recovery.at("demand_reads").number, 0.0);
  EXPECT_NE(recovery.find("refetches"), nullptr);
  EXPECT_NE(recovery.find("recovery_cycles"), nullptr);
  EXPECT_NE(recovery.find("mean_repair_cycles"), nullptr);

  const CommandResult csv = run_tool_stdout(base + " --csv");
  ASSERT_EQ(csv.exit_code, 0);
  EXPECT_NE(csv.output.find("strikes,masked,dre,due,sdc,vulnerability,"
                            "demand_reads"),
            std::string::npos)
      << csv.output;

  // Without recovery flags the report sticks to the strike columns.
  const CommandResult plain =
      run_tool_stdout("campaign --strikes 5000 --json");
  ASSERT_EQ(plain.exit_code, 0);
  EXPECT_EQ(parse_json(plain.output).find("recovery"), nullptr);
}

TEST(CliTest, SuiteOutputIsJobsInvariant) {
  const CommandResult serial =
      run_tool_stdout("--jobs 1 suite --scale 64 --json");
  const CommandResult parallel =
      run_tool_stdout("--jobs 4 suite --scale 64 --json");
  EXPECT_EQ(serial.exit_code, 0);
  EXPECT_EQ(parallel.exit_code, 0);
  ASSERT_FALSE(serial.output.empty());
  EXPECT_EQ(serial.output, parallel.output);
}

TEST(CliTest, EventLogIsByteIdenticalAcrossJobCounts) {
  // The structured event log is keyed on simulated time only, so for a
  // pinned shard count it must not change with the worker count.
  const std::string campaign = "campaign --strikes 20000 --shards 4";
  std::string reference;
  for (const char* jobs : {"1", "2", "8"}) {
    const std::string path =
        temp_path((std::string("ftspm_cli_events_j") + jobs).c_str());
    const CommandResult r = run_tool_stdout(
        std::string("--jobs ") + jobs + " --events-out " + path + " " +
        campaign);
    ASSERT_EQ(r.exit_code, 0);
    const std::string log = slurp(path);
    std::remove(path.c_str());
    ASSERT_FALSE(log.empty());
    if (reference.empty()) {
      reference = log;
      // Spot-check the record kinds the schema promises.
      for (const char* event :
           {"run_manifest", "phase_start", "shard_start", "shard_end",
            "phase_end", "campaign_summary"})
        EXPECT_NE(log.find(std::string("\"event\":\"") + event + "\""),
                  std::string::npos)
            << event;
      for (const JsonValue& line : parse_ndjson(log))
        EXPECT_DOUBLE_EQ(line.at("schema").number, 1.0);
    } else {
      EXPECT_EQ(log, reference) << "--jobs " << jobs;
    }
  }
}

TEST(CliTest, HeartbeatWritesNdjsonAndLeavesStdoutAlone) {
  const std::string path = temp_path("ftspm_cli_heartbeat.ndjson");
  std::remove(path.c_str());
  const CommandResult plain =
      run_tool_stdout("campaign --strikes 50000 --shards 4 --jobs 2");
  const CommandResult beating = run_tool_stdout(
      "--heartbeat-out " + path +
      " --heartbeat-interval-ms 1 campaign --strikes 50000 --shards 4"
      " --jobs 2");
  ASSERT_EQ(plain.exit_code, 0);
  ASSERT_EQ(beating.exit_code, 0);
  EXPECT_EQ(plain.output, beating.output);
  const std::vector<JsonValue> beats = parse_ndjson(slurp(path));
  std::remove(path.c_str());
  ASSERT_GE(beats.size(), 2u);
  for (const JsonValue& beat : beats)
    EXPECT_EQ(beat.at("event").string, "heartbeat");
  EXPECT_EQ(beats.back().at("final").boolean, true);
}

TEST(CliTest, UnopenableLedgerIsAnIoErrorExitingOne) {
  // The campaign runs, then the ledger append fails: an I/O failure
  // (exit 1, no usage hint), not a usage error (exit 2).
  const std::string ledger =
      temp_path("ftspm_cli_no_such_dir") + "/ledger.jsonl";
  const CommandResult r =
      run_tool("--ledger " + ledger + " campaign --strikes 2000");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("cannot open ledger"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("ftspm_tool help"), std::string::npos) << r.output;
}

TEST(CliTest, UnopenableUserFilesAreUsageErrorsNamingThePath) {
  // A file the user named that cannot be opened is a usage error: exit
  // 2, the message and the usage hint, and no check internals.
  const std::string missing = temp_path("ftspm_cli_no_such_dir") + "/x";
  const std::pair<std::string, std::string> cases[] = {
      {"report saturation --in " + missing, "cannot open '" + missing + "'"},
      {"campaign --strikes 2000 --resume " + missing,
       "cannot open checkpoint '" + missing + "'"},
      {"campaign --strikes 2000 --checkpoint " + missing + ".json",
       "cannot open checkpoint '" + missing + ".json' for writing"},
      {"profile " + missing + ".trace",
       "cannot open '" + missing + ".trace'"},
  };
  for (const auto& [args, message] : cases) {
    const CommandResult r = run_tool_stderr(args);
    EXPECT_EQ(r.exit_code, 2) << args;
    EXPECT_EQ(r.output,
              "error: " + message + "\nrun `ftspm_tool help` for usage\n")
        << args;
  }
}

TEST(CliTest, TraceDeclaringAnOversizedProgramIsAUsageError) {
  // One 32 MiB block in a file of a few dozen bytes: the reader refuses
  // it, naming the bound, before the profiler sizes anything by it.
  const std::string path = temp_path("ftspm_cli_oversized.trace");
  {
    std::ofstream out(path);
    out << "ftspm-trace v1\nprogram big\nblock a data 33554432\ntrace 0\n";
  }
  const CommandResult r = run_tool_stderr("profile " + path);
  std::remove(path.c_str());
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("16777216"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("ftspm_tool help"), std::string::npos) << r.output;
}

TEST(CliTest, DefectsInUserFilesAreUsageErrorsWithTheMessageAlone) {
  // A checkpoint resumed under another shard count, and a trace with an
  // unknown block kind: exit 2, the message and the usage hint, and no
  // check text or source path.
  const std::string checkpoint = temp_path("ftspm_cli_shards.json");
  const std::string trace = temp_path("ftspm_cli_bad_kind.trace");
  std::remove(checkpoint.c_str());
  ASSERT_EQ(run_tool_stdout("campaign --strikes 2000 --shards 2 "
                            "--checkpoint " +
                            checkpoint)
                .exit_code,
            0);
  {
    std::ofstream out(trace);
    out << "ftspm-trace v1\nprogram p\nblock a dat 64\ntrace 0\n";
  }
  const std::pair<std::string, std::string> cases[] = {
      {"campaign --strikes 2000 --shards 3 --resume " + checkpoint,
       "checkpoint was taken with a different shard count"},
      {"profile " + trace, "trace line 3: unknown block kind 'dat'"},
  };
  for (const auto& [args, message] : cases) {
    const CommandResult r = run_tool_stderr(args);
    EXPECT_EQ(r.exit_code, 2) << args;
    EXPECT_EQ(r.output,
              "error: " + message + "\nrun `ftspm_tool help` for usage\n")
        << args;
  }
  std::remove(checkpoint.c_str());
  std::remove(trace.c_str());
}

TEST(CliTest, LedgerCompareGatesOnRegression) {
  const std::string ledger = temp_path("ftspm_cli_ledger.jsonl");
  std::remove(ledger.c_str());
  const std::string common = " campaign --strikes 20000 --shards 4";
  ASSERT_EQ(run_tool_stdout("--ledger " + ledger + common).exit_code, 0);
  ASSERT_EQ(run_tool_stdout("--ledger " + ledger + " --jobs 4" + common)
                .exit_code,
            0);
  // Different occupancy moves every counter: an injected regression.
  ASSERT_EQ(run_tool_stdout("--ledger " + ledger + common +
                            " --occupancy 0.3")
                .exit_code,
            0);

  const CommandResult listing = run_tool("--ledger " + ledger + " runs list");
  EXPECT_EQ(listing.exit_code, 0);
  EXPECT_NE(listing.output.find("run-0"), std::string::npos);
  EXPECT_NE(listing.output.find("run-2"), std::string::npos);

  // Same seed and shard count (jobs differ): byte-equal counters.
  const CommandResult same =
      run_tool("--ledger " + ledger + " compare run-0 run-1");
  EXPECT_EQ(same.exit_code, 0);
  EXPECT_NE(same.output.find("no regression"), std::string::npos);

  const CommandResult drift =
      run_tool("--ledger " + ledger + " compare run-0 run-2 --threshold 5");
  EXPECT_EQ(drift.exit_code, 1);
  EXPECT_NE(drift.output.find("REGRESSED"), std::string::npos);

  // A huge threshold on a single stable metric passes the gate.
  const CommandResult gated = run_tool(
      "--ledger " + ledger + " compare run-0 run-2 --metric strikes");
  EXPECT_EQ(gated.exit_code, 0);

  const CommandResult missing =
      run_tool("--ledger " + ledger + " compare run-0 no_such_run");
  EXPECT_EQ(missing.exit_code, 2);
  EXPECT_NE(missing.output.find("not found"), std::string::npos);

  // --threshold feeds gating math: non-finite, hex-float, and negative
  // values are usage errors, never a silent pass-everything gate.
  for (const char* bad : {"nan", "inf", "-1", "5x", "0x1p3"}) {
    const CommandResult r = run_tool("--ledger " + ledger +
                                     " compare run-0 run-2 --threshold " +
                                     bad);
    EXPECT_EQ(r.exit_code, 2) << bad << "\n" << r.output;
    EXPECT_NE(r.output.find("--threshold"), std::string::npos) << r.output;
  }
  std::remove(ledger.c_str());
}

TEST(CliTest, CompareRejectsMalformedRunRefsWithUsageExit) {
  // "@foo" used to escape obs::find_run as an uncaught
  // std::invalid_argument from std::stoull and kill the tool with no
  // usage hint. A malformed @ ref can never name a run, so it is a
  // usage error (exit 2) even with no ledger present at all.
  for (const char* ref : {"@foo", "@", "@1x", "@-1"}) {
    const CommandResult r = run_tool(std::string("compare '") + ref + "' @1");
    EXPECT_EQ(r.exit_code, 2) << ref << "\n" << r.output;
    EXPECT_NE(r.output.find(ref), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("run `ftspm_tool help` for usage"),
              std::string::npos)
        << r.output;
  }
}

TEST(CliTest, CampaignProbabilityFlagsRejectNonFiniteAndOutOfRange) {
  // --occupancy and --dirty-fraction are probabilities: anything
  // outside [0, 1] — including nan/inf/hex-float spellings strtod
  // happily parses — must die in flag validation.
  for (const char* bad : {"nan", "inf", "-0.1", "1.5", "0x1p-1", "0.5x"}) {
    const CommandResult occ = run_tool(
        std::string("campaign --strikes 1000 --occupancy ") + bad);
    EXPECT_EQ(occ.exit_code, 2) << bad << "\n" << occ.output;
    EXPECT_NE(occ.output.find("--occupancy"), std::string::npos)
        << occ.output;
    const CommandResult dirty = run_tool(
        std::string("campaign --strikes 1000 --recover --dirty-fraction ") +
        bad);
    EXPECT_EQ(dirty.exit_code, 2) << bad << "\n" << dirty.output;
    EXPECT_NE(dirty.output.find("--dirty-fraction"), std::string::npos)
        << dirty.output;
  }
}

TEST(CliTest, CampaignCountFlagsRejectNegativeAndOutOfRange) {
  // Counts used to go through a signed parse and a cast: "-5" strikes
  // wrapped to 2^64-5 and ran until killed, "--shards -1" died in
  // bad_alloc. Each must be a usage error (exit 2) naming its flag,
  // with the same caps the daemon applies to a wire spec.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"strikes", "-5"},
      {"strikes", "0"},
      {"strikes", "9007199254740993"},  // 2^53 + 1
      {"shards", "-1"},
      {"shards", "4097"},
      {"size", "-8"},
      {"size", "1099511627777"},  // 2^40 + 1
      {"interleave", "-1"},
      {"interleave", "65537"},
      {"refetch-words", "-1"},
      {"refetch-words", "4294967297"},  // 2^32 + 1
      {"scrub-interval", "-1"},
      {"scrub-interval", "9007199254740993"},
  };
  for (const auto& [flag, value] : cases) {
    const CommandResult r = run_tool("campaign --" + flag + " " + value);
    EXPECT_EQ(r.exit_code, 2) << flag << " " << value << "\n" << r.output;
    EXPECT_NE(r.output.find(flag), std::string::npos)
        << flag << " " << value << "\n" << r.output;
  }
}

TEST(CliTest, ReuseRejectsNegativeScaleWideLineAndUnknownScope) {
  // --scale and --line-bytes went through a signed parse and a cast:
  // "-8" wrapped to a huge divisor and profiled a near-empty trace,
  // 2^32 + 32 truncated to 32, and an unknown scope silently ran the
  // data scope. Each must be a usage error (exit 2) naming its flag.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"scale", "-8"},
      {"line-bytes", "4294967328"},  // 2^32 + 32
      {"scope", "instruction"},
  };
  for (const auto& [flag, value] : cases) {
    const CommandResult r = run_tool("reuse crc32 --" + flag + " " + value);
    EXPECT_EQ(r.exit_code, 2) << flag << " " << value << "\n" << r.output;
    EXPECT_NE(r.output.find(flag), std::string::npos)
        << flag << " " << value << "\n" << r.output;
  }
}

TEST(CliTest, PartialWordSizeAndZeroScaleAreUsageErrors) {
  // `--size 9` reached the geometry's check and `--scale 0` the suite
  // generator's, and both printed the check's text and source line;
  // `case_study --scale 0` ran at full scale. Each is a usage error
  // (exit 2) naming its flag, with no check internals.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"campaign --strikes 1000 --size 9", "size"},
      {"profile crc32 --scale 0", "--scale"},
      {"suite --scale 0", "--scale"},
      {"reuse crc32 --scale 0", "--scale"},
      {"evaluate case_study --scale 0", "--scale"},
      {"profile case_study --scale 0", "--scale"},
  };
  for (const auto& [args, flag] : cases) {
    const CommandResult r = run_tool(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find(flag), std::string::npos) << args << "\n"
                                                      << r.output;
    EXPECT_EQ(r.output.find("FTSPM_"), std::string::npos) << args << "\n"
                                                          << r.output;
  }
}

TEST(CliTest, CampaignLedgerCountersMatchRunCampaignSpec) {
  // The CLI runs its flags through serve::run_campaign_spec and records
  // through campaign_spec_record, so its ledger line must carry the
  // counters of the same spec run in process.
  serve::CampaignSpec plain;
  plain.strikes = 20000;
  serve::CampaignSpec recovery = plain;
  recovery.recover = true;
  recovery.occupancy = 0.4;
  const std::vector<std::pair<std::string, serve::CampaignSpec>> cases = {
      {"", plain}, {" --recover --occupancy 0.4", recovery}};
  for (const auto& [flags, spec] : cases) {
    const std::string ledger = temp_path("ftspm_cli_spec_ledger.jsonl");
    std::remove(ledger.c_str());
    ASSERT_EQ(run_tool_stdout("--ledger " + ledger +
                              " campaign --strikes 20000" + flags)
                  .exit_code,
              0);
    const std::vector<obs::LedgerRecord> records = obs::read_ledger(ledger);
    std::remove(ledger.c_str());
    ASSERT_EQ(records.size(), 1u) << flags;
    const obs::LedgerRecord& got = records[0];
    const obs::LedgerRecord want =
        serve::campaign_spec_record(spec, serve::run_campaign_spec(spec));
    EXPECT_EQ(got.command, want.command) << flags;
    EXPECT_EQ(got.workload, want.workload) << flags;
    EXPECT_EQ(got.seed, want.seed) << flags;
    EXPECT_EQ(got.jobs, want.jobs) << flags;
    EXPECT_EQ(got.shards, want.shards) << flags;
    // The ledger writes keys sorted; the values must match exactly.
    const std::map<std::string, std::uint64_t> got_counters(
        got.counters.begin(), got.counters.end());
    const std::map<std::string, std::uint64_t> want_counters(
        want.counters.begin(), want.counters.end());
    EXPECT_EQ(got_counters, want_counters) << flags;
    const std::map<std::string, double> got_metrics(got.metrics.begin(),
                                                    got.metrics.end());
    ASSERT_EQ(got_metrics.size(), want.metrics.size()) << flags;
    for (const auto& [name, value] : want.metrics)
      EXPECT_DOUBLE_EQ(got_metrics.at(name), value) << flags << " " << name;
  }
}

TEST(CliTest, CampaignJsonTimingOnlyWithTimeFlag) {
  const std::string args = "campaign --strikes 5000 --json";
  const CommandResult plain = run_tool_stdout(args);
  ASSERT_EQ(plain.exit_code, 0);
  EXPECT_EQ(parse_json(plain.output).find("timing"), nullptr);
  const CommandResult timed = run_tool_stdout(args + " --time");
  ASSERT_EQ(timed.exit_code, 0);
  const JsonValue doc = parse_json(timed.output);
  const JsonValue* timing = doc.find("timing");
  ASSERT_NE(timing, nullptr);
  EXPECT_EQ(timing->at("nondeterministic").boolean, true);
  EXPECT_GT(timing->at("wall_ms").number, 0.0);
  EXPECT_GE(timing->at("strikes_per_sec").number, 0.0);
}

TEST(CliTest, SensitivityGridFileIsJobsInvariant) {
  // Fixed (seed, strikes, shards): the merged grid CSV must not
  // depend on the worker count, and its totals row-sum must match the
  // (jobs-invariant) campaign stdout.
  const std::string base = "campaign --strikes 20000 --shards 4 "
                           "--sensitivity-buckets 32 --sensitivity-out ";
  std::string reference;
  for (const char* jobs : {"1", "2", "8"}) {
    const std::string path =
        temp_path((std::string("ftspm_cli_grid_j") + jobs).c_str());
    const CommandResult r =
        run_tool_stdout(std::string("--jobs ") + jobs + " " + base + path);
    ASSERT_EQ(r.exit_code, 0);
    const std::string grid = slurp(path);
    std::remove(path.c_str());
    ASSERT_FALSE(grid.empty());
    EXPECT_EQ(grid.rfind("region,label,protection,bucket,first_bit,"
                         "last_bit,strikes,masked,dre,due,sdc",
                         0),
              0u)
        << grid.substr(0, 120);
    if (reference.empty())
      reference = grid;
    else
      EXPECT_EQ(grid, reference) << "--jobs " << jobs;
  }

  // The default run (one shard on one worker) writes the same grid as
  // a one-shard run on two workers.
  const std::string serial_path = temp_path("ftspm_cli_grid_serial");
  const std::string one_path = temp_path("ftspm_cli_grid_oneshard");
  ASSERT_EQ(run_tool_stdout("campaign --strikes 20000 "
                            "--sensitivity-buckets 32 --sensitivity-out " +
                            serial_path)
                .exit_code,
            0);
  ASSERT_EQ(run_tool_stdout("--jobs 2 campaign --strikes 20000 --shards 1 "
                            "--sensitivity-buckets 32 --sensitivity-out " +
                            one_path)
                .exit_code,
            0);
  EXPECT_EQ(slurp(serial_path), slurp(one_path));
  std::remove(serial_path.c_str());
  std::remove(one_path.c_str());
}

TEST(CliTest, RunsListLastLimitsTheListing) {
  const std::string ledger = temp_path("ftspm_cli_ledger_last.jsonl");
  std::remove(ledger.c_str());
  for (int i = 0; i < 3; ++i)
    ASSERT_EQ(run_tool_stdout("--ledger " + ledger +
                              " campaign --strikes 2000")
                  .exit_code,
              0);
  const CommandResult all = run_tool("--ledger " + ledger + " runs list");
  EXPECT_EQ(all.exit_code, 0);
  EXPECT_NE(all.output.find("run-0"), std::string::npos);
  EXPECT_NE(all.output.find("run-2"), std::string::npos);

  const CommandResult last =
      run_tool("--ledger " + ledger + " runs list --last 2");
  EXPECT_EQ(last.exit_code, 0);
  EXPECT_EQ(last.output.find("run-0"), std::string::npos) << last.output;
  EXPECT_NE(last.output.find("run-1"), std::string::npos);
  EXPECT_NE(last.output.find("run-2"), std::string::npos);

  // --last larger than the ledger shows everything.
  const CommandResult over =
      run_tool("--ledger " + ledger + " runs list --last 99");
  EXPECT_NE(over.output.find("run-0"), std::string::npos);
  std::remove(ledger.c_str());
}

TEST(CliTest, RunsListSkipsCorruptLedgerLinesWithAWarning) {
  const std::string ledger = temp_path("ftspm_cli_ledger_corrupt.jsonl");
  std::remove(ledger.c_str());
  ASSERT_EQ(
      run_tool_stdout("--ledger " + ledger + " campaign --strikes 2000")
          .exit_code,
      0);
  {  // Simulate a crashed appender: half a record on line 2.
    std::ofstream out(ledger, std::ios::app | std::ios::binary);
    out << "{\"schema\":1,\"id\":\"torn\n";
  }
  ASSERT_EQ(
      run_tool_stdout("--ledger " + ledger + " campaign --strikes 2000")
          .exit_code,
      0);

  const CommandResult listing = run_tool("--ledger " + ledger + " runs list");
  EXPECT_EQ(listing.exit_code, 0);
  EXPECT_NE(listing.output.find("warning:"), std::string::npos)
      << listing.output;
  EXPECT_NE(listing.output.find("line 2"), std::string::npos)
      << listing.output;
  EXPECT_NE(listing.output.find("run-0"), std::string::npos);
  EXPECT_NE(listing.output.find("run-1"), std::string::npos);

  // The strict compare gate still refuses the damaged file.
  const CommandResult compare =
      run_tool("--ledger " + ledger + " compare run-0 run-1");
  EXPECT_NE(compare.exit_code, 0);
  std::remove(ledger.c_str());
}

TEST(CliTest, ReportRendersACompletedRunEndToEnd) {
  const std::string ledger = temp_path("ftspm_cli_report_ledger.jsonl");
  const std::string metrics = temp_path("ftspm_cli_report_metrics.json");
  const std::string grid = temp_path("ftspm_cli_report_grid.csv");
  const std::string html = temp_path("ftspm_cli_report.html");
  const std::string csv = temp_path("ftspm_cli_report.csv");
  for (const std::string& p : {ledger, metrics, grid, html, csv})
    std::remove(p.c_str());

  ASSERT_EQ(run_tool_stdout("--ledger " + ledger + " --metrics-out " +
                            metrics +
                            " campaign --strikes 20000 --shards 2 "
                            "--sensitivity-buckets 16 --sensitivity-out " +
                            grid)
                .exit_code,
            0);

  const CommandResult r =
      run_tool("--ledger " + ledger + " report run-0 --metrics " + metrics +
               " --sensitivity " + grid + " --html " + html + " --out-csv " +
               csv);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("wrote report for run 'run-0'"),
            std::string::npos);

  const std::string doc = slurp(html);
  ASSERT_FALSE(doc.empty());
  EXPECT_EQ(doc.rfind("<!DOCTYPE html>", 0), 0u);
  EXPECT_NE(doc.find("<svg class=\"heatmap\""), std::string::npos);
  EXPECT_NE(doc.find("<table class=\"region-outcomes\">"),
            std::string::npos);
  EXPECT_NE(doc.find("campaign.bucket_strikes"), std::string::npos);

  // The CSV cross-checks the ledger counters against the grid totals:
  // the run recorded every strike, so region strike rows sum to the
  // "counter,strikes" row.
  const std::string report_csv = slurp(csv);
  EXPECT_NE(report_csv.find("counter,strikes,,20000"), std::string::npos)
      << report_csv;
  EXPECT_NE(report_csv.find("region,r0,strikes,20000"), std::string::npos)
      << report_csv;

  // An unknown run reference is a usage error.
  const CommandResult missing =
      run_tool("--ledger " + ledger + " report no_such_run");
  EXPECT_EQ(missing.exit_code, 2);
  EXPECT_NE(missing.output.find("not found"), std::string::npos);

  for (const std::string& p : {ledger, metrics, grid, html, csv})
    std::remove(p.c_str());
}

TEST(CliTest, ReportTrendSummarizesTheLedger) {
  const std::string ledger = temp_path("ftspm_cli_trend_ledger.jsonl");
  std::remove(ledger.c_str());
  ASSERT_EQ(
      run_tool_stdout("--ledger " + ledger + " campaign --strikes 5000")
          .exit_code,
      0);
  ASSERT_EQ(run_tool_stdout("--ledger " + ledger +
                            " campaign --strikes 5000 --occupancy 0.5")
                .exit_code,
            0);

  const CommandResult table =
      run_tool_stdout("--ledger " + ledger + " report trend");
  EXPECT_EQ(table.exit_code, 0);
  EXPECT_NE(table.output.find("SDC rate"), std::string::npos)
      << table.output;
  EXPECT_NE(table.output.find("run-1"), std::string::npos);

  const CommandResult csv =
      run_tool_stdout("--ledger " + ledger + " report trend --csv");
  EXPECT_EQ(csv.exit_code, 0);
  EXPECT_EQ(csv.output.rfind("index,id,workload,strikes,sdc,sdc_rate,"
                             "vulnerability,strikes_per_sec",
                             0),
            0u)
      << csv.output;
  EXPECT_NE(csv.output.find("\n0,run-0,"), std::string::npos);
  EXPECT_NE(csv.output.find("\n1,run-1,"), std::string::npos);

  // The historical suite-export spelling of `report` still works
  // (flags only, no positional).
  const std::string out_dir = temp_path("ftspm_cli_report_suite_dir");
  const CommandResult legacy =
      run_tool_stdout("report --scale 64 --out-dir " + out_dir);
  EXPECT_EQ(legacy.exit_code, 0) << legacy.output;
  EXPECT_NE(legacy.output.find("wrote"), std::string::npos);
  run_command("rm -rf " + out_dir);
  std::remove(ledger.c_str());
}

TEST(CliTest, EvaluateJsonEmbedsManifest) {
  const CommandResult r = run_tool("evaluate case_study --scale 32 --json");
  EXPECT_EQ(r.exit_code, 0);
  const JsonValue doc = parse_json(r.output);
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(doc.array.size(), 3u);
  const JsonValue& manifest = doc.array[0].at("manifest");
  EXPECT_EQ(manifest.at("command").string, "ftspm_tool evaluate");
  EXPECT_EQ(manifest.at("workload").string, "case_study");
  EXPECT_DOUBLE_EQ(manifest.at("scale").number, 32.0);
  EXPECT_FALSE(manifest.at("library_version").string.empty());
}

TEST(CliTest, ExportToStdoutMatchesExportToFile) {
  // The stdout path streams the trace text instead of building it in
  // memory first; the bytes must not change.
  const std::string path = temp_path("ftspm_cli_export_dijkstra.trace");
  const CommandResult to_file =
      run_tool_stdout("export dijkstra --out " + path);
  ASSERT_EQ(to_file.exit_code, 0);
  const CommandResult to_stdout = run_tool_stdout("export dijkstra");
  ASSERT_EQ(to_stdout.exit_code, 0);
  const std::string file = slurp(path);
  EXPECT_GT(file.size(), 1'000'000u);
  EXPECT_TRUE(to_stdout.output == file)
      << "stdout " << to_stdout.output.size() << " bytes, file "
      << file.size() << " bytes";
  std::remove(path.c_str());
}

// CLI artefact goldens: each command runs with --metrics-out,
// --trace-out and --events-out, and its stdout and the three files
// must keep the size and FNV-1a 64 digest they had when the goldens
// were captured (before telemetry became an obs::Context handed down
// the call graph, so they pin that the threading changed no byte).
// Traces run to megabytes, hence digests rather than files. A mismatch
// names the file it left behind and the row that would match it.

struct ArtefactDigest {
  std::size_t bytes;
  std::uint64_t fnv1a;
};

/// stdout, metrics, trace, event log — in that order.
using ArtefactGoldens = std::array<ArtefactDigest, 4>;

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

void expect_artefacts(const std::string& name, const std::string& args,
                      const ArtefactGoldens& goldens) {
  SCOPED_TRACE(args);
  const std::string stem = temp_path(("ftspm_cli_golden_" + name).c_str());
  const std::array<std::string, 4> paths = {
      stem + ".out", stem + ".metrics.json", stem + ".trace.json",
      stem + ".events.ndjson"};
  const CommandResult r = run_command(
      std::string(FTSPM_TOOL_PATH) + " " + args + " --metrics-out " +
      paths[1] + " --trace-out " + paths[2] + " --events-out " + paths[3] +
      " >" + paths[0] + " 2>/dev/null");
  ASSERT_EQ(r.exit_code, 0);
  bool all_match = true;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const std::string bytes = slurp(paths[i]);
    const ArtefactDigest got{bytes.size(), fnv1a64(bytes)};
    const bool match =
        got.bytes == goldens[i].bytes && got.fnv1a == goldens[i].fnv1a;
    char row[64];
    std::snprintf(row, sizeof row, "{%zu, 0x%016llXULL}", got.bytes,
                  static_cast<unsigned long long>(got.fnv1a));
    EXPECT_TRUE(match) << paths[i] << " is " << row;
    all_match = all_match && match;
  }
  if (all_match)
    for (const std::string& path : paths) std::remove(path.c_str());
}

constexpr ArtefactGoldens kStaticCampaign = {{{106, 0x59BCF1770A8F1F71ULL},
                                              {557, 0x3D2C4B6792C45067ULL},
                                              {1616, 0x3EAE7F3653DC0D34ULL},
                                              {2469, 0x1DF094593E29D3DDULL}}};
constexpr ArtefactGoldens kRecoveryCampaign = {
    {{264, 0xB5BEFAA9C733D968ULL},
     {897, 0x941885DC52970800ULL},
     {3458, 0xCE6CAAFF192C2BACULL},
     {2552, 0x7F2EA2C0F1CFC9BDULL}}};

TEST(CliArtefactGoldenTest, StaticCampaignAtTwoAndEightJobs) {
  // The sharded-campaign determinism gate's command: the artefacts are
  // also the same at any --jobs.
  for (const char* jobs : {"2", "8"})
    expect_artefacts(std::string("static_j") + jobs,
                     std::string("campaign --strikes 200000 --shards 8 "
                                 "--jobs ") +
                         jobs + " --sensitivity-out " +
                         temp_path("ftspm_cli_golden_static.csv"),
                     kStaticCampaign);
  std::remove(temp_path("ftspm_cli_golden_static.csv").c_str());
}

TEST(CliArtefactGoldenTest, RecoveryCampaignAtTwoAndEightJobs) {
  for (const char* jobs : {"2", "8"})
    expect_artefacts(std::string("recovery_j") + jobs,
                     std::string("campaign --strikes 30000 --shards 8 "
                                 "--occupancy 0.3 --recover "
                                 "--scrub-interval 1024 --jobs ") +
                         jobs + " --sensitivity-out " +
                         temp_path("ftspm_cli_golden_recovery.csv"),
                     kRecoveryCampaign);
  std::remove(temp_path("ftspm_cli_golden_recovery.csv").c_str());
}

TEST(CliArtefactGoldenTest, SuiteSerial) {
  // One job: every evaluation books its sim.* and mda.* telemetry.
  expect_artefacts("suite_j1", "suite --scale 16 --jobs 1",
                   {{{1328, 0x02A1E54E9FF06981ULL},
                     {571, 0x94A394B22EC7DA44ULL},
                     {4641052, 0x6721E74E50CF9687ULL},
                     {2496, 0xEC7B9ABA749377E7ULL}}});
}

TEST(CliArtefactGoldenTest, SuiteParallel) {
  // Four jobs: each worker books into a context of its own, folded in
  // benchmark order after the join, so every artefact is the serial
  // run's.
  expect_artefacts("suite_j4", "suite --scale 16 --jobs 4",
                   {{{1328, 0x02A1E54E9FF06981ULL},
                     {571, 0x94A394B22EC7DA44ULL},
                     {4641052, 0x6721E74E50CF9687ULL},
                     {2496, 0xEC7B9ABA749377E7ULL}}});
}

TEST(CliArtefactGoldenTest, StatsDijkstra) {
  expect_artefacts("stats_dijkstra", "stats dijkstra",
                   {{{888, 0x87091D5F4F19E92EULL},
                     {471, 0x77E461873BE58586ULL},
                     {124987, 0xAEF365AE707F4E69ULL},
                     {106, 0x81403715AEB7C215ULL}}});
}

}  // namespace
}  // namespace ftspm
