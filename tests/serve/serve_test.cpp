// End-to-end tests for the serve subsystem: an in-process Server on a
// real unix socket, driven by serve::Client and the load injector.
//
// The determinism contract under test: a campaign served over the
// socket produces bit-identical counters — and an equivalent ledger
// record — to the same spec run directly, because both paths execute
// run_campaign_spec() and build their record through
// report::campaign_run_record().
#include "ftspm/serve/server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ftspm/obs/ledger.h"
#include "ftspm/serve/client.h"
#include "ftspm/serve/load.h"
#include "ftspm/serve/protocol.h"
#include "ftspm/util/error.h"
#include "ftspm/util/json.h"
#include "ftspm/util/rng.h"

namespace ftspm::serve {
namespace {

/// A per-test unix socket path, short enough for sun_path and unique
/// enough for parallel ctest (pid + a process-local counter).
std::string test_socket(const char* tag) {
  static int counter = 0;
  return "/tmp/ftspm-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + "-" + std::to_string(counter++) +
         ".sock";
}

std::string test_ledger(const char* tag) {
  std::string path = "/tmp/ftspm-" + std::string(tag) + "-" +
                     std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  return path;
}

/// Polls the server until `pred(status)` holds or ~2s elapse.
template <typename Pred>
bool wait_for_status(const Server& server, Pred pred) {
  for (int i = 0; i < 400; ++i) {
    if (pred(server.status())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

/// Reads frames until one with type `want` for `id` arrives; fails the
/// test on a result/error frame that terminates the stream first.
JsonValue next_frame_of_type(Client& client, const std::string& want) {
  while (true) {
    JsonValue frame = client.next_frame();
    const std::string type = frame.at("type").string;
    if (type == want) return frame;
    // Heartbeats are the only frames a test may skip freely.
    if (type != "heartbeat") {
      ADD_FAILURE() << "unexpected '" << type << "' frame while waiting for '"
                    << want << "'";
      return frame;
    }
  }
}

TEST(ServeTest, PingPongAndStatusRoundTrip) {
  ServerConfig cfg;
  cfg.socket_path = test_socket("ping");
  Server server(cfg);
  server.start();

  Client client = Client::connect_unix(cfg.socket_path);
  client.ping();

  client.send_line(status_request());
  const JsonValue frame = next_frame_of_type(client, "status");
  EXPECT_TRUE(frame.at("accepting").boolean);
  EXPECT_EQ(frame.at("queued").number, 0.0);

  server.request_stop();
  server.wait();
  EXPECT_FALSE(server.status().accepting);
}

TEST(ServeTest, ServedCampaignMatchesDirectRunBitForBit) {
  CampaignSpec spec;
  spec.protection = "secded";
  spec.strikes = 200'000;
  spec.size = 4096;
  spec.shards = 3;
  spec.recover = true;
  spec.scrub_interval = 5'000;

  // The reference: the same engine invoked directly, no socket.
  const CampaignOutcome direct = run_campaign_spec(spec);
  ASSERT_TRUE(direct.complete);
  const obs::LedgerRecord want = campaign_spec_record(spec, direct);

  ServerConfig cfg;
  cfg.socket_path = test_socket("det");
  cfg.ledger_path = test_ledger("det");
  cfg.jobs = 2;  // Jobs must not perturb counters.
  Server server(cfg);
  server.start();

  Client client = Client::connect_unix(cfg.socket_path);
  const std::string id = client.submit(spec, "det-1");
  EXPECT_EQ(id, "det-1");
  const JsonValue result = next_frame_of_type(client, "result");
  EXPECT_TRUE(result.at("complete").boolean);
  EXPECT_EQ(result.at("workload").string, want.workload);
  EXPECT_EQ(result.at("seed").number, static_cast<double>(want.seed));
  EXPECT_EQ(result.at("shards").number, static_cast<double>(want.shards));
  for (const auto& [name, value] : want.counters) {
    EXPECT_EQ(result.at("counters").at(name).number,
              static_cast<double>(value))
        << "counter " << name;
  }
  for (const auto& [name, value] : want.metrics) {
    EXPECT_DOUBLE_EQ(result.at("metrics").at(name).number, value)
        << "metric " << name;
  }

  server.request_stop();
  server.wait();

  // The daemon appended the run exactly as a one-shot would have.
  const obs::LedgerScan scan = obs::scan_ledger(cfg.ledger_path);
  ASSERT_EQ(scan.records.size(), 1u);
  const obs::LedgerRecord& got = scan.records[0];
  EXPECT_EQ(got.id, "run-0");
  EXPECT_EQ(got.command, want.command);
  EXPECT_EQ(got.workload, want.workload);
  EXPECT_EQ(got.seed, want.seed);
  EXPECT_EQ(got.shards, want.shards);
  // The ledger JSON round-trip re-orders keys alphabetically; the
  // values must survive bit for bit.
  auto sorted_counters = [](std::vector<std::pair<std::string, std::uint64_t>>
                                pairs) {
    std::sort(pairs.begin(), pairs.end());
    return pairs;
  };
  EXPECT_EQ(sorted_counters(got.counters), sorted_counters(want.counters));
  auto sorted_metrics = [](std::vector<std::pair<std::string, double>> pairs) {
    std::sort(pairs.begin(), pairs.end());
    return pairs;
  };
  const auto got_metrics = sorted_metrics(got.metrics);
  const auto want_metrics = sorted_metrics(want.metrics);
  ASSERT_EQ(got_metrics.size(), want_metrics.size());
  for (std::size_t i = 0; i < want_metrics.size(); ++i) {
    EXPECT_EQ(got_metrics[i].first, want_metrics[i].first);
    EXPECT_DOUBLE_EQ(got_metrics[i].second, want_metrics[i].second);
  }
  std::remove(cfg.ledger_path.c_str());
}

TEST(ServeTest, SpecRunResumedFromCheckpointMatchesUninterruptedRun) {
  // The CLI's --checkpoint/--resume reach the runner through the
  // ExecConfig half of CampaignRunHooks; a spec run cancelled partway
  // and resumed from its checkpoint must land on the uninterrupted
  // counters. heartbeat_strikes only wires the progress sink, which
  // the counters never see.
  CampaignSpec spec;
  spec.strikes = 300'000;
  spec.shards = 3;
  spec.occupancy = 0.6;
  const CampaignOutcome whole = run_campaign_spec(spec);
  ASSERT_TRUE(whole.complete);

  const std::string checkpoint = test_ledger("spec-checkpoint");
  std::atomic<bool> cancel{false};
  CampaignSpec cancelling = spec;
  cancelling.heartbeat_strikes = 4096;
  CampaignRunHooks halt;
  halt.jobs = 2;
  halt.cancel = &cancel;
  halt.progress = [&](std::uint64_t done, std::uint64_t) {
    if (done >= 100'000) cancel.store(true, std::memory_order_relaxed);
  };
  halt.checkpoint_path = checkpoint;
  const CampaignOutcome first = run_campaign_spec(cancelling, halt);
  EXPECT_FALSE(first.complete);
  EXPECT_LT(first.result.strikes.strikes, spec.strikes);

  CampaignRunHooks resume;
  resume.jobs = 2;
  resume.resume_path = checkpoint;
  const CampaignOutcome second = run_campaign_spec(spec, resume);
  std::remove(checkpoint.c_str());
  ASSERT_TRUE(second.complete);
  const CampaignResult& a = whole.result.strikes;
  const CampaignResult& b = second.result.strikes;
  EXPECT_EQ(b.strikes, a.strikes);
  EXPECT_EQ(b.masked, a.masked);
  EXPECT_EQ(b.dre, a.dre);
  EXPECT_EQ(b.due, a.due);
  EXPECT_EQ(b.sdc, a.sdc);
  EXPECT_EQ(second.used_shards, whole.used_shards);
  const obs::LedgerRecord want = campaign_spec_record(spec, whole);
  const obs::LedgerRecord got = campaign_spec_record(spec, second);
  EXPECT_EQ(got.counters, want.counters);
  EXPECT_EQ(got.metrics, want.metrics);
}

TEST(ServeTest, HeartbeatsStreamBeforeTheResult) {
  CampaignSpec spec;
  spec.strikes = 100'000;
  spec.shards = 4;
  spec.heartbeat_strikes = 20'000;

  ServerConfig cfg;
  cfg.socket_path = test_socket("hb");
  Server server(cfg);
  server.start();

  Client client = Client::connect_unix(cfg.socket_path);
  const std::string id = client.submit(spec);
  EXPECT_EQ(id, "req-0");  // Daemon-assigned when the client sends none.
  std::uint64_t heartbeats = 0;
  double last_done = 0.0;
  while (true) {
    const JsonValue frame = client.next_frame();
    const std::string type = frame.at("type").string;
    if (type == "heartbeat") {
      ++heartbeats;
      EXPECT_EQ(frame.at("id").string, id);
      EXPECT_GE(frame.at("done").number, last_done);
      EXPECT_EQ(frame.at("total").number, 100'000.0);
      last_done = frame.at("done").number;
      continue;
    }
    ASSERT_EQ(type, "result");
    break;
  }
  EXPECT_GE(heartbeats, 1u);

  server.request_stop();
  server.wait();
}

TEST(ServeTest, TinyHeartbeatIntervalIsBoundedPerRun) {
  // A one-strike interval would end a runner chunk at every strike;
  // the spec floors it at strikes / kMaxSpecHeartbeats.
  CampaignSpec spec;
  spec.strikes = 200'000;
  spec.shards = 2;
  spec.heartbeat_strikes = 1;
  CampaignRunHooks hooks;
  std::uint64_t calls = 0;
  hooks.progress = [&](std::uint64_t, std::uint64_t) { ++calls; };
  const CampaignOutcome out = run_campaign_spec(spec, hooks);
  EXPECT_TRUE(out.complete);
  EXPECT_GE(calls, 2u);
  EXPECT_LE(calls, kMaxSpecHeartbeats + 1);
  EXPECT_EQ(campaign_spec_record(spec, out).counters,
            campaign_spec_record(spec, run_campaign_spec(spec)).counters);
}

TEST(ServeTest, FullQueueShedsWithStructuredOverloadedError) {
  // A long blocker occupies the executor, one request fills the
  // max_queue=1 admission queue, and the third must bounce with the
  // structured `overloaded` error — never a hang or a dropped socket.
  CampaignSpec blocker;
  blocker.strikes = 400'000'000;  // Seconds of work; cancelled at the end.
  blocker.shards = 64;            // Cancellation is per-shard.

  ServerConfig cfg;
  cfg.socket_path = test_socket("shed");
  cfg.max_queue = 1;
  Server server(cfg);
  server.start();

  Client client = Client::connect_unix(cfg.socket_path);
  const std::string running = client.submit(blocker, "blocker");
  ASSERT_TRUE(wait_for_status(server, [&](const ServerStatus& s) {
    return s.running_id == running;
  }));

  CampaignSpec small;
  small.strikes = 1'000;
  client.submit(small, "queued");  // Fills the queue.
  try {
    client.submit(small, "shed-me");
    FAIL() << "third submit should have been shed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("overloaded"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(server.status().rejected_overload, 1u);

  // Shutdown cancels the blocker and bounces the queued request.
  server.request_stop();
  server.wait();
  const ServerStatus st = server.status();
  EXPECT_EQ(st.rejected_overload, 1u);
  EXPECT_EQ(st.completed, 0u);
}

TEST(ServeTest, CancelEndsTheRequestStreamWithCancelledError) {
  CampaignSpec blocker;
  blocker.strikes = 400'000'000;
  blocker.shards = 64;

  ServerConfig cfg;
  cfg.socket_path = test_socket("cancel");
  Server server(cfg);
  server.start();

  Client client = Client::connect_unix(cfg.socket_path);
  const std::string id = client.submit(blocker, "victim");
  ASSERT_TRUE(wait_for_status(
      server, [&](const ServerStatus& s) { return s.running_id == id; }));

  client.send_line(cancel_request(id));
  bool saw_ack = false;
  bool saw_cancelled_error = false;
  while (!saw_ack || !saw_cancelled_error) {
    const JsonValue frame = client.next_frame();
    const std::string type = frame.at("type").string;
    if (type == "cancelled") {
      EXPECT_EQ(frame.at("id").string, id);
      saw_ack = true;
    } else if (type == "error") {
      EXPECT_EQ(frame.at("code").string, "cancelled");
      EXPECT_EQ(frame.at("id").string, id);
      saw_cancelled_error = true;
    } else {
      ASSERT_EQ(type, "heartbeat") << "unexpected frame " << type;
    }
  }
  ASSERT_TRUE(wait_for_status(
      server, [](const ServerStatus& s) { return s.cancelled >= 1; }));

  // A cancelled run never reaches the ledger, and the daemon is free
  // for the next request.
  Client after = Client::connect_unix(cfg.socket_path);
  CampaignSpec small;
  small.strikes = 1'000;
  after.submit(small, "after");
  const JsonValue result = next_frame_of_type(after, "result");
  EXPECT_TRUE(result.at("complete").boolean);

  server.request_stop();
  server.wait();
  EXPECT_EQ(server.status().cancelled, 1u);
  EXPECT_EQ(server.status().completed, 1u);
}

TEST(ServeTest, CancellingAnUnknownIdAnswersNotFound) {
  ServerConfig cfg;
  cfg.socket_path = test_socket("notfound");
  Server server(cfg);
  server.start();

  Client client = Client::connect_unix(cfg.socket_path);
  client.send_line(cancel_request("no-such-id"));
  const JsonValue frame = next_frame_of_type(client, "error");
  EXPECT_EQ(frame.at("code").string, "not_found");

  server.request_stop();
  server.wait();
}

TEST(ServeTest, MalformedFramesAnswerBadRequestAndKeepTheConnection) {
  ServerConfig cfg;
  cfg.socket_path = test_socket("bad");
  Server server(cfg);
  server.start();

  Client client = Client::connect_unix(cfg.socket_path);
  client.send_line(R"({"type":"bogus"})");
  EXPECT_EQ(next_frame_of_type(client, "error").at("code").string,
            "bad_request");
  client.send_line(R"({"type":"campaign","spec":{"protection":"romulan"}})");
  EXPECT_EQ(next_frame_of_type(client, "error").at("code").string,
            "bad_request");
  // The connection survives request-level garbage.
  client.ping();

  server.request_stop();
  server.wait();
}

TEST(ServeTest, BadRequestMessageIsTheInputErrorAlone) {
  // The daemon sends what() to the client in its bad_request frame, so
  // a rejected spec must name the field and carry no check internals.
  try {
    parse_request(parse_json(R"({"type":"campaign","spec":{"strikes":0}})"));
    FAIL() << "a zero-strike spec was accepted";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("spec.strikes"), std::string::npos) << what;
    EXPECT_EQ(what.find(".cpp:"), std::string::npos) << what;
  }
}

TEST(ServeTest, SpecSizeIsWholeWordsAndRecoverySizeIsBounded) {
  // A size of 9 bytes used to reach the geometry's check and send its
  // text; a 1 GiB recovery spec was accepted, and each running shard
  // then built about 2.4 GiB of live image. Both are input errors now.
  // Only validation runs here: no spec is run, so nothing allocates.
  const auto rejects = [](const char* spec_json, const char* needle) {
    SCOPED_TRACE(spec_json);
    try {
      spec_from_json(parse_json(spec_json));
      ADD_FAILURE() << "the spec was accepted";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(needle), std::string::npos) << what;
      EXPECT_EQ(what.find("FTSPM_"), std::string::npos) << what;
    }
  };
  rejects(R"({"size":9})", "multiple of 8");
  rejects(R"({"size":1073741824,"recover":true})", "2^24");
  rejects(R"({"size":16777224,"scrub_interval":1024})", "2^24");

  CampaignSpec spec;
  spec.recover = true;
  spec.size = kMaxRecoverySpecSize;
  EXPECT_NO_THROW(validate_spec(spec));
  spec.scrub_interval = 1024;
  EXPECT_NO_THROW(validate_spec(spec));
  spec.size += 8;
  EXPECT_THROW(validate_spec(spec), InvalidArgument);
  // The bound is on recovery alone: a static spec keeps kMaxSpecSize.
  spec.recover = false;
  spec.scrub_interval = 0;
  spec.size = kMaxSpecSize;
  EXPECT_NO_THROW(validate_spec(spec));
}

TEST(ServeTest, ShutdownRequestDrainsTheDaemon) {
  ServerConfig cfg;
  cfg.socket_path = test_socket("bye");
  Server server(cfg);
  server.start();

  Client client = Client::connect_unix(cfg.socket_path);
  client.send_line(shutdown_request());
  EXPECT_EQ(next_frame_of_type(client, "shutting_down").at("type").string,
            "shutting_down");
  server.wait();  // Returns because the shutdown request drains it.
  EXPECT_FALSE(server.status().accepting);
}

/// A run that holds the executor for seconds until it is cancelled
/// (cancellation is per shard, so many shards make it prompt).
CampaignSpec blocker_spec() {
  CampaignSpec spec;
  spec.strikes = 400'000'000;
  spec.shards = 64;
  return spec;
}

CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.strikes = 1'000;
  return spec;
}

TEST(ServeTest, HigherPriorityRunsFirstBehindABusyExecutor) {
  ServerConfig cfg;
  cfg.socket_path = test_socket("prio");
  Server server(cfg);
  server.start();

  Client client = Client::connect_unix(cfg.socket_path);
  const std::string blocker = client.submit(blocker_spec(), "blocker");
  ASSERT_TRUE(wait_for_status(server, [&](const ServerStatus& s) {
    return s.running_id == blocker;
  }));
  client.submit(small_spec(), "low", 0);
  client.submit(small_spec(), "high", 7);
  client.send_line(cancel_request(blocker));

  std::vector<std::string> results;
  while (results.size() < 2) {
    const JsonValue frame = client.next_frame();
    const std::string type = frame.at("type").string;
    if (type == "result") {
      results.push_back(frame.at("id").string);
    } else if (type == "error") {
      EXPECT_EQ(frame.at("id").string, blocker) << frame.dump();
    }
  }
  EXPECT_EQ(results, (std::vector<std::string>{"high", "low"}));

  server.request_stop();
  server.wait();
  EXPECT_EQ(server.status().completed, 2u);
}

TEST(ServeTest, CancellingAQueuedRequestAnswersRequesterAndCanceller) {
  ServerConfig cfg;
  cfg.socket_path = test_socket("qcancel");
  Server server(cfg);
  server.start();

  Client requester = Client::connect_unix(cfg.socket_path);
  const std::string blocker = requester.submit(blocker_spec(), "blocker");
  ASSERT_TRUE(wait_for_status(server, [&](const ServerStatus& s) {
    return s.running_id == blocker;
  }));
  requester.submit(small_spec(), "queued");

  Client canceller = Client::connect_unix(cfg.socket_path);
  canceller.send_line(cancel_request("queued"));
  const JsonValue ack = next_frame_of_type(canceller, "cancelled");
  EXPECT_EQ(ack.at("id").string, "queued");
  const JsonValue error = next_frame_of_type(requester, "error");
  EXPECT_EQ(error.at("id").string, "queued");
  EXPECT_EQ(error.at("code").string, "cancelled");
  EXPECT_EQ(error.at("message").string, "cancelled while queued");
  EXPECT_EQ(server.status().queued, 0u);

  server.request_stop();
  server.wait();
  EXPECT_EQ(server.status().completed, 0u);
}

TEST(ServeTest, ShutdownAnswersQueuedRequestsShuttingDown) {
  ServerConfig cfg;
  cfg.socket_path = test_socket("drain");
  Server server(cfg);
  server.start();

  Client client = Client::connect_unix(cfg.socket_path);
  const std::string blocker = client.submit(blocker_spec(), "blocker");
  ASSERT_TRUE(wait_for_status(server, [&](const ServerStatus& s) {
    return s.running_id == blocker;
  }));
  client.submit(small_spec(), "q1");
  client.submit(small_spec(), "q2");
  server.request_stop();

  // The queued pair is bounced; the running blocker is cancelled.
  std::vector<std::string> bounced;
  while (bounced.size() < 2) {
    const JsonValue frame = next_frame_of_type(client, "error");
    const std::string id = frame.at("id").string;
    if (id == blocker) {
      EXPECT_EQ(frame.at("code").string, "cancelled");
    } else {
      EXPECT_EQ(frame.at("code").string, "shutting_down");
      bounced.push_back(id);
    }
  }
  std::sort(bounced.begin(), bounced.end());
  EXPECT_EQ(bounced, (std::vector<std::string>{"q1", "q2"}));

  server.wait();
  EXPECT_EQ(server.status().cancelled, 3u);
  EXPECT_EQ(server.status().completed, 0u);
}

TEST(ServeTest, ConnectionBeyondTheLimitIsAnsweredOverloadedAndClosed) {
  ServerConfig cfg;
  cfg.socket_path = test_socket("limit");
  cfg.max_connections = 1;
  Server server(cfg);
  server.start();

  Client first = Client::connect_unix(cfg.socket_path);
  first.ping();  // Admitted and counted before the second connects.
  Client second = Client::connect_unix(cfg.socket_path);
  const JsonValue frame = second.next_frame();
  EXPECT_EQ(frame.at("type").string, "error");
  EXPECT_EQ(frame.at("code").string, "overloaded");
  EXPECT_EQ(frame.at("message").string, "too many connections");
  EXPECT_THROW(second.next_frame(), Error);  // Closed after the answer.
  first.ping();  // The admitted connection is unaffected.

  server.request_stop();
  server.wait();
}

TEST(ServeTest, SilentClientIsClosedAsSlowConsumerAndOthersAreServed) {
  // Client A pipelines thousands of one-strike campaigns, each with a
  // heartbeat, and never reads its answers. Client B and a fresh status
  // probe must still be served, and A must be closed and counted as a
  // slow consumer. The waits are bounded, and A is closed before the
  // teardown, so a daemon that stalls fails here instead of hanging.
  ServerConfig cfg;
  cfg.socket_path = test_socket("slow");
  cfg.max_queue = 4096;
  Server server(cfg);
  server.start();

  Client silent = Client::connect_unix(cfg.socket_path);
  CampaignSpec tiny;
  tiny.strikes = 1;
  tiny.heartbeat_strikes = 1;
  std::thread flood([&] {
    try {
      for (int i = 0; i < 3000; ++i)
        silent.send_line(campaign_request(tiny, "a-" + std::to_string(i), 0));
    } catch (const Error&) {
      // The daemon closed A, or the test did: the flood is over.
    }
  });

  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::seconds(5);
  const auto remaining_ms = [&] {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    return static_cast<int>(std::max<std::int64_t>(left.count(), 0));
  };
  // The first frame of type `want`, if one arrives before the deadline.
  const auto await = [&](Client& client,
                         const std::string& want) -> std::optional<JsonValue> {
    while (remaining_ms() > 0) {
      std::optional<JsonValue> frame = client.poll_frame(remaining_ms());
      if (frame.has_value() && frame->at("type").string == want) return frame;
    }
    return std::nullopt;
  };

  Client other = Client::connect_unix(cfg.socket_path);
  other.send_line(campaign_request(small_spec(), "b", 0));
  const bool result = await(other, "result").has_value();
  Client probe = Client::connect_unix(cfg.socket_path);
  probe.send_line(status_request());
  const bool status = await(probe, "status").has_value();
  const auto answered_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start);
  // A's answers overflow its outbox as its runs complete.
  bool counted = false;
  while (status && !counted && remaining_ms() > 0) {
    probe.send_line(metrics_request());
    const std::optional<JsonValue> metrics = await(probe, "metrics");
    const JsonValue* slow =
        metrics.has_value() ? metrics->at("registry")
                                  .at("labelled_counters")
                                  .at("serve.requests")
                                  .find("outcome=slow_consumer")
                            : nullptr;
    counted = slow != nullptr && slow->number == 1.0;
    if (!counted) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // The daemon closed A: past what the socket buffered, A reads EOF.
  bool closed = false;
  try {
    while (counted && remaining_ms() > 0) silent.poll_frame(remaining_ms());
  } catch (const Error&) {
    closed = true;
  }

  ::shutdown(silent.fd(), SHUT_RDWR);  // Unblocks a daemon stuck on A.
  flood.join();
  EXPECT_TRUE(result) << "client B got no result within 5 s";
  EXPECT_TRUE(status) << "the status probe got no answer within 5 s";
  EXPECT_TRUE(counted) << "A was not counted as a slow consumer";
  EXPECT_TRUE(closed) << "A was not closed";
  RecordProperty("answered_ms", static_cast<int>(answered_ms.count()));

  server.request_stop();
  server.wait();
}

TEST(ServeTest, ServedRunIdsMatchAFullLedgerScan) {
  // The daemon counts ledger records incrementally. Its run ids must
  // still be what a full scan gives when another process appends
  // between two results, the file is truncated or replaced, and the
  // ledger ends in a torn line.
  ServerConfig cfg;
  cfg.socket_path = test_socket("ids");
  cfg.ledger_path = test_ledger("ids");
  Server server(cfg);
  server.start();
  Client client = Client::connect_unix(cfg.socket_path);
  int n = 0;
  const auto served_id = [&] {
    client.submit(small_spec(), "ids-" + std::to_string(n++));
    return next_frame_of_type(client, "result").at("run_id").string;
  };
  const auto expected_id = [&] {
    return "run-" +
           std::to_string(obs::scan_ledger(cfg.ledger_path).records.size());
  };
  const auto write_file = [](const std::string& path,
                             const std::string& bytes, const char* mode) {
    std::FILE* f = std::fopen(path.c_str(), mode);
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  };

  EXPECT_EQ(served_id(), "run-0");
  obs::LedgerRecord foreign = obs::scan_ledger(cfg.ledger_path).records.at(0);
  foreign.id = "from-the-cli";
  const std::string line = foreign.to_json() + "\n";
  // Another appender between two results.
  obs::append_ledger(foreign, cfg.ledger_path);
  std::string want = expected_id();
  EXPECT_EQ(want, "run-2");
  EXPECT_EQ(served_id(), want);
  // Truncated to one record.
  write_file(cfg.ledger_path, line, "wb");
  want = expected_id();
  EXPECT_EQ(served_id(), want);
  // Replaced by a longer file.
  const std::string replacement = cfg.ledger_path + ".new";
  write_file(replacement, line + line + line + line + line, "wb");
  ASSERT_EQ(std::rename(replacement.c_str(), cfg.ledger_path.c_str()), 0);
  want = expected_id();
  EXPECT_EQ(want, "run-5");
  EXPECT_EQ(served_id(), want);
  // A torn last line, which the next result's append then garbles.
  write_file(cfg.ledger_path, line.substr(0, line.size() / 2), "ab");
  want = expected_id();
  EXPECT_EQ(served_id(), want);
  want = expected_id();
  EXPECT_EQ(served_id(), want);

  server.request_stop();
  server.wait();
  std::remove(cfg.ledger_path.c_str());
}

TEST(ServeTest, LoadSustainsConcurrentClientsWithPerClassQuantiles) {
  ServerConfig cfg;
  cfg.socket_path = test_socket("load");
  cfg.ledger_path = test_ledger("load");
  cfg.max_queue = 32;
  Server server(cfg);
  server.start();

  RequestClass alpha;
  alpha.name = "alpha";
  alpha.weight = 3.0;
  alpha.spec.strikes = 2'000;
  RequestClass beta;
  beta.name = "beta";
  beta.weight = 1.0;
  beta.spec.strikes = 4'000;
  beta.spec.protection = "parity";

  LoadConfig load;
  load.socket_path = cfg.socket_path;
  load.classes = {alpha, beta};
  load.connections = 2;  // The acceptance bar: >= 2 concurrent clients.
  load.requests = 12;
  load.seed = 7;
  const LoadReport report = run_load(load);

  EXPECT_EQ(report.sent, 12u);
  EXPECT_EQ(report.completed, 12u);
  EXPECT_EQ(report.overloaded, 0u);
  EXPECT_EQ(report.errors, 0u);
  ASSERT_EQ(report.classes.size(), 2u);
  std::uint64_t class_sum = 0;
  for (const ClassStats& c : report.classes) {
    class_sum += c.completed;
    EXPECT_EQ(c.latency_ms.count(), c.completed) << c.name;
    if (c.completed > 0) {
      EXPECT_GT(c.latency_ms.quantile(0.50), 0.0) << c.name;
      EXPECT_GE(c.latency_ms.quantile(0.99), c.latency_ms.quantile(0.50))
          << c.name;
    }
  }
  EXPECT_EQ(class_sum, 12u);

  // The report round-trips through both serializers, shed surface
  // included (nothing shed here, so the aggregate rate is exactly 0).
  EXPECT_EQ(report.shed_rate(), 0.0);
  const JsonValue doc = parse_json(report.to_json());
  EXPECT_NE(doc.find("shed_rate"), nullptr);
  EXPECT_EQ(doc.at("shed_rate").number, 0.0);
  EXPECT_NE(doc.at("classes").array.at(0).find("shed_rate"), nullptr);
  EXPECT_NE(report.to_csv().find(
                "class,weight,sent,completed,overloaded,cancelled,errors,"
                "shed_rate"),
            std::string::npos);

  server.request_stop();
  server.wait();
  EXPECT_EQ(server.status().completed, 12u);
  EXPECT_EQ(obs::scan_ledger(cfg.ledger_path).records.size(), 12u);
  std::remove(cfg.ledger_path.c_str());
}

TEST(ServeTest, LatencyBucketsPlaceQuantilesWithinOneBucket) {
  // Histogram::quantile interpolates inside a bucket, so its error is
  // at most the width of the bucket holding the true quantile. The
  // bounds must be log-spaced from 10 us, three to a decade, for that
  // width to stay small down where served requests land.
  const std::vector<double>& bounds = load_latency_bounds();
  ASSERT_EQ(bounds.size(), 18u);
  EXPECT_DOUBLE_EQ(bounds.front(), 0.01);
  EXPECT_DOUBLE_EQ(bounds.back(), 5000.0);
  for (std::size_t i = 1; i < bounds.size(); ++i)
    EXPECT_LE(bounds[i], 2.5 * bounds[i - 1] * (1 + 1e-12)) << i;

  Rng rng(0x1a7e5eed);
  const auto exponential = [&](double mean) {
    return -mean * std::log(1.0 - rng.next_double());
  };
  // A served request: 0.08 ms floor plus an exponential 0.03 ms, with
  // 2% slow outliers — the old 0-0.5 ms first bucket read its 0.1 ms
  // median as about 0.29 ms. Then a log-uniform spread over 20 us to
  // 40 ms, and a bimodal mix of fast pings and 5-15 ms campaigns.
  std::vector<std::vector<double>> sets(3);
  for (int i = 0; i < 20'000; ++i) {
    sets[0].push_back(rng.next_double() < 0.02 ? 2.0 + 8.0 * rng.next_double()
                                               : 0.08 + exponential(0.03));
    sets[1].push_back(0.02 * std::pow(2000.0, rng.next_double()));
    sets[2].push_back(rng.next_double() < 0.7 ? 0.03 + exponential(0.02)
                                              : 5.0 + 10.0 * rng.next_double());
  }
  for (std::size_t k = 0; k < sets.size(); ++k) {
    std::vector<double>& samples = sets[k];
    ClassStats stats;
    for (const double v : samples) stats.latency_ms.observe(v);
    std::sort(samples.begin(), samples.end());
    for (const double q : {0.50, 0.95, 0.99}) {
      // Nearest-rank sample quantile and the bucket that holds it.
      const auto rank = static_cast<std::size_t>(
          std::ceil(q * static_cast<double>(samples.size())));
      const double exact = samples[rank - 1];
      const auto it = std::lower_bound(bounds.begin(), bounds.end(), exact);
      ASSERT_NE(it, bounds.end());
      const double width = *it - (it == bounds.begin() ? 0.0 : *(it - 1));
      EXPECT_NEAR(stats.latency_ms.quantile(q), exact, width)
          << "set " << k << " q " << q;
    }
  }
}

TEST(ServeTest, OpenLoopLoadResolvesEveryRequest) {
  ServerConfig cfg;
  cfg.socket_path = test_socket("open");
  cfg.max_queue = 4;
  Server server(cfg);
  server.start();

  RequestClass only;
  only.name = "only";
  only.spec.strikes = 2'000;

  LoadConfig load;
  load.socket_path = cfg.socket_path;
  load.classes = {only};
  load.connections = 2;
  load.requests = 8;
  load.rate = 500.0;  // Open loop: scheduled sends, poll-based reads.
  const LoadReport report = run_load(load);

  EXPECT_EQ(report.sent, 8u);
  EXPECT_EQ(report.errors, 0u);
  // Every request resolved one way: completed, or shed under pressure.
  std::uint64_t resolved = 0;
  for (const ClassStats& c : report.classes)
    resolved += c.completed + c.overloaded + c.cancelled;
  EXPECT_EQ(resolved, 8u);

  server.request_stop();
  server.wait();
}

}  // namespace
}  // namespace ftspm::serve
