// Live daemon telemetry: the wall-clock request trace, the `metrics`
// introspection frame, and the periodic telemetry snapshot writer.
//
// The contracts under test:
//   * The span *set* a served workload records is identical across
//     worker counts — timestamps and lane ids are wall-clock and free,
//     the taxonomy (admitted → queued → running → shard k → flushing
//     result) is not.
//   * Tracing is reporting only: ledger counters and metrics are
//     bit-identical with the trace and telemetry writers on or off.
//   * The `metrics` frame has a pinned deterministic schema.
//   * Served runs book their campaign telemetry into ServerConfig::obs,
//     as a one-shot run does into its own, and the drain folds the
//     serving-layer registry in.
//   * The telemetry NDJSON writer emits a first and a final snapshot,
//     every line strict-parseable, sequence numbers strictly
//     increasing. Runs under TSan via the CI `Serve` regex.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ftspm/obs/context.h"
#include "ftspm/obs/ledger.h"
#include "ftspm/serve/campaign_spec.h"
#include "ftspm/serve/client.h"
#include "ftspm/serve/server.h"
#include "ftspm/util/json.h"

namespace ftspm::serve {
namespace {

std::string test_path(const char* tag, const char* ext) {
  static int counter = 0;
  std::string path = "/tmp/ftspm-tel-" + std::string(tag) + "-" +
                     std::to_string(::getpid()) + "-" +
                     std::to_string(counter++) + ext;
  std::remove(path.c_str());
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

JsonValue frame_of_type(Client& client, const std::string& want) {
  while (true) {
    JsonValue frame = client.next_frame();
    if (frame.at("type").string == want) return frame;
    EXPECT_EQ(frame.at("type").string, "heartbeat")
        << "unexpected frame while waiting for '" << want << "'";
  }
}

/// The wall-clock trace reduced to its timestamp-free identity: one
/// sorted "thread|phase|name" string per event ('E' closers carry no
/// name). Lane ids and timestamps vary run to run; this set must not.
std::vector<std::string> span_set(const std::string& trace_json) {
  const JsonValue doc = parse_json(trace_json);
  // Thread names come from the 'M' metadata rows, keyed by (pid, tid).
  std::map<std::pair<double, double>, std::string> threads;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    if (e.at("ph").string == "M" && e.at("name").string == "thread_name") {
      threads[{e.at("pid").number, e.at("tid").number}] =
          e.at("args").at("name").string;
    }
  }
  std::vector<std::string> out;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    const std::string& ph = e.at("ph").string;
    if (ph == "M") continue;
    const JsonValue* name = e.find("name");
    out.push_back(threads.at({e.at("pid").number, e.at("tid").number}) + "|" +
                  ph + "|" + (name != nullptr ? name->string : ""));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Serves three fixed campaigns sequentially (one at a time, so the
/// queue-depth counter sequence is reproducible) and returns the
/// recorded trace document.
std::string serve_traced_workload(std::uint32_t jobs) {
  ServerConfig cfg;
  cfg.socket_path = test_path("span", ".sock");
  cfg.trace_path = test_path("span", ".trace.json");
  cfg.jobs = jobs;
  Server server(cfg);
  server.start();

  Client client = Client::connect_unix(cfg.socket_path);
  for (int i = 0; i < 3; ++i) {
    CampaignSpec spec;
    spec.strikes = 20'000;
    spec.shards = 4;
    spec.recover = (i == 2);  // One recovery request: kind=recovery.
    client.submit(spec, "s-" + std::to_string(i));
    const JsonValue result = frame_of_type(client, "result");
    EXPECT_TRUE(result.at("complete").boolean);
  }

  server.request_stop();
  server.wait();
  const std::string trace = slurp(cfg.trace_path);
  std::remove(cfg.trace_path.c_str());
  return trace;
}

TEST(ServeTelemetryTest, SpanSetIdenticalAcrossWorkerCounts) {
  const std::vector<std::string> one = span_set(serve_traced_workload(1));
  const std::vector<std::string> eight = span_set(serve_traced_workload(8));
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, eight);

  // The taxonomy itself: every request contributes the full ladder.
  for (int i = 0; i < 3; ++i) {
    const std::string req = "req s-" + std::to_string(i);
    EXPECT_EQ(std::count(one.begin(), one.end(), req + "|i|admitted"), 1);
    EXPECT_EQ(std::count(one.begin(), one.end(), req + "|B|queued"), 1);
    EXPECT_EQ(std::count(one.begin(), one.end(), req + "|B|running"), 1);
    EXPECT_EQ(std::count(one.begin(), one.end(), req + "|B|flushing result"),
              1);
    for (int shard = 0; shard < 4; ++shard) {
      EXPECT_EQ(std::count(one.begin(), one.end(),
                           req + "|X|shard " + std::to_string(shard)),
                1)
          << req;
    }
  }
  EXPECT_NE(std::count(one.begin(), one.end(), "queue|C|serve.queue_depth"),
            0);
}

TEST(ServeTelemetryTest, LedgerRecordBitIdenticalWithTracingOnOrOff) {
  CampaignSpec spec;
  spec.protection = "secded";
  spec.strikes = 150'000;
  spec.shards = 3;
  spec.recover = true;
  spec.scrub_interval = 5'000;

  auto serve_once = [&](bool telemetry) {
    ServerConfig cfg;
    cfg.socket_path = test_path("bit", ".sock");
    cfg.ledger_path = test_path("bit", ".jsonl");
    cfg.jobs = 2;
    if (telemetry) {
      cfg.trace_path = test_path("bit", ".trace.json");
      cfg.telemetry_path = test_path("bit", ".ndjson");
      cfg.telemetry_interval_ms = 5;
    }
    Server server(cfg);
    server.start();
    Client client = Client::connect_unix(cfg.socket_path);
    client.submit(spec, "bit-1");
    frame_of_type(client, "result");
    server.request_stop();
    server.wait();
    const obs::LedgerScan scan = obs::scan_ledger(cfg.ledger_path);
    std::remove(cfg.ledger_path.c_str());
    if (telemetry) {
      std::remove(cfg.trace_path.c_str());
      std::remove(cfg.telemetry_path.c_str());
    }
    EXPECT_EQ(scan.records.size(), 1u);
    return scan.records.at(0);
  };

  const obs::LedgerRecord plain = serve_once(false);
  const obs::LedgerRecord traced = serve_once(true);
  EXPECT_EQ(plain.workload, traced.workload);
  EXPECT_EQ(plain.seed, traced.seed);
  EXPECT_EQ(plain.shards, traced.shards);
  EXPECT_EQ(plain.counters, traced.counters);
  ASSERT_EQ(plain.metrics.size(), traced.metrics.size());
  for (std::size_t i = 0; i < plain.metrics.size(); ++i) {
    EXPECT_EQ(plain.metrics[i].first, traced.metrics[i].first);
    EXPECT_EQ(plain.metrics[i].second, traced.metrics[i].second)
        << plain.metrics[i].first;  // Bitwise: EXPECT_EQ, not NEAR.
  }
}

TEST(ServeTelemetryTest, ServedRunsAndTheDrainBookIntoTheConfiguredContext) {
  CampaignSpec spec;
  spec.strikes = 20'000;
  spec.shards = 4;

  // The one-shot run's telemetry, for comparison.
  obs::EventLog direct_events;
  obs::Context direct;
  direct.events = &direct_events;
  CampaignRunHooks hooks;
  hooks.obs = &direct;
  (void)run_campaign_spec(spec, hooks);

  obs::EventLog events;
  obs::Context served;
  served.events = &events;
  ServerConfig cfg;
  cfg.socket_path = test_path("ctx", ".sock");
  cfg.jobs = 2;
  cfg.obs = &served;
  Server server(cfg);
  server.start();
  Client client = Client::connect_unix(cfg.socket_path);
  client.submit(spec, "ctx-1");
  EXPECT_TRUE(frame_of_type(client, "result").at("complete").boolean);
  server.request_stop();
  server.wait();

  // The served run books what the one-shot run books; the drain adds
  // the serving-layer instruments.
  EXPECT_EQ(events.str(), direct_events.str());
  EXPECT_EQ(served.registry.counter("campaign.strikes").value(),
            spec.strikes);
  EXPECT_EQ(served.registry
                .counter("serve.requests",
                         obs::LabelSet{{"outcome", "completed"}})
                .value(),
            1u);
}

TEST(ServeTelemetryTest, MetricsFrameSchemaIsPinned) {
  ServerConfig cfg;
  cfg.socket_path = test_path("schema", ".sock");
  Server server(cfg);
  server.start();

  Client client = Client::connect_unix(cfg.socket_path);
  CampaignSpec spec;
  spec.strikes = 10'000;
  client.submit(spec, "m-1");
  frame_of_type(client, "result");

  client.send_line(metrics_request());
  const JsonValue frame = frame_of_type(client, "metrics");

  // Top-level key set and order are the wire contract.
  std::vector<std::string> keys;
  for (const auto& [key, value] : frame.object) keys.push_back(key);
  const std::vector<std::string> want = {
      "type",      "protocol",          "uptime_ms", "accepting",
      "queued",    "running",           "admitted",  "completed",
      "rejected_overload", "cancelled", "failed",    "registry"};
  EXPECT_EQ(keys, want);
  EXPECT_EQ(frame.at("protocol").number, 1.0);
  EXPECT_EQ(frame.at("completed").number, 1.0);

  // The registry snapshot: fixed sections, and the serve families the
  // one completed request must have populated.
  const JsonValue& registry = frame.at("registry");
  EXPECT_NE(registry.find("counters"), nullptr);
  EXPECT_NE(registry.find("gauges"), nullptr);
  EXPECT_NE(registry.find("histograms"), nullptr);
  EXPECT_EQ(registry.at("gauges").at("serve.queue_depth").number, 0.0);
  EXPECT_EQ(registry.at("labelled_counters")
                .at("serve.requests")
                .at("outcome=completed")
                .number,
            1.0);
  EXPECT_EQ(registry.at("labelled_histograms")
                .at("serve.queue_wait_ms")
                .at("priority=0")
                .at("count")
                .number,
            1.0);
  EXPECT_EQ(registry.at("labelled_histograms")
                .at("serve.service_ms")
                .at("kind=static")
                .at("count")
                .number,
            1.0);

  server.request_stop();
  server.wait();
}

TEST(ServeTelemetryTest, TelemetryWriterEmitsFirstAndFinalSnapshots) {
  ServerConfig cfg;
  cfg.socket_path = test_path("ndjson", ".sock");
  cfg.telemetry_path = test_path("ndjson", ".ndjson");
  cfg.telemetry_interval_ms = 5;
  Server server(cfg);
  server.start();

  Client client = Client::connect_unix(cfg.socket_path);
  CampaignSpec spec;
  spec.strikes = 50'000;
  spec.shards = 2;
  client.submit(spec, "t-1");
  frame_of_type(client, "result");

  server.request_stop();
  server.wait();

  std::istringstream lines(slurp(cfg.telemetry_path));
  std::remove(cfg.telemetry_path.c_str());
  std::vector<JsonValue> records;
  std::string line;
  while (std::getline(lines, line)) records.push_back(parse_json(line));
  ASSERT_GE(records.size(), 2u);

  double last_seq = -1.0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const JsonValue& r = records[i];
    EXPECT_EQ(r.at("schema").number, 1.0);
    EXPECT_EQ(r.at("event").string, "serve_telemetry");
    EXPECT_GT(r.at("seq").number, last_seq);
    last_seq = r.at("seq").number;
    EXPECT_EQ(r.at("final").boolean, i + 1 == records.size());
    EXPECT_GE(r.at("wall_ms").number, 0.0);
    EXPECT_NE(r.find("registry"), nullptr);
  }
  EXPECT_EQ(records.front().at("seq").number, 0.0);
  const JsonValue& last = records.back();
  EXPECT_FALSE(last.at("accepting").boolean);
  EXPECT_EQ(last.at("queued").number, 0.0);
  EXPECT_EQ(last.at("completed").number, 1.0);
}

}  // namespace
}  // namespace ftspm::serve
