#include "ftspm/serve/load.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <span>
#include <thread>

#include "ftspm/serve/client.h"
#include "ftspm/util/error.h"
#include "ftspm/util/rng.h"

namespace ftspm::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

const std::vector<double>& load_latency_bounds() {
  // 1-2-5 per decade from 10 us: Histogram::quantile interpolates
  // linearly inside a bucket, so a served request's sub-millisecond
  // latency needs buckets that narrow, not one from 0 to 0.5 ms.
  static const std::vector<double> bounds = {
      0.01, 0.02, 0.05, 0.1,   0.2,   0.5,   1.0,    2.0,    5.0,
      10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0};
  return bounds;
}

ClassStats::ClassStats() : latency_ms(load_latency_bounds()) {}

std::vector<RequestClass> parse_mix(const std::string& text) {
  std::vector<RequestClass> classes;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string entry =
        text.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    pos = comma == std::string::npos ? text.size() + 1 : comma + 1;
    if (entry.empty()) continue;
    RequestClass cls;
    // name[:weight[:strikes]]
    const std::size_t c1 = entry.find(':');
    cls.name = entry.substr(0, c1);
    FTSPM_REQUIRE(!cls.name.empty(), "mix entry '" + entry + "' has no name");
    if (c1 != std::string::npos) {
      const std::size_t c2 = entry.find(':', c1 + 1);
      const std::string weight_text =
          entry.substr(c1 + 1, c2 == std::string::npos ? std::string::npos
                                                       : c2 - c1 - 1);
      // A zero, negative, or NaN weight silently corrupts the
      // weighted pick: the class can never be drawn (a confusing
      // no-op) or skews every other class's share. Require a finite
      // weight > 0 so a typo fails loudly at parse time.
      try {
        std::size_t consumed = 0;
        cls.weight = std::stod(weight_text, &consumed);
        FTSPM_REQUIRE(consumed == weight_text.size() &&
                          std::isfinite(cls.weight) && cls.weight > 0.0,
                      "mix weight '" + weight_text +
                          "' must be a finite number > 0");
      } catch (const InvalidArgument&) {
        throw;
      } catch (const std::exception&) {
        throw InvalidArgument("mix weight '" + weight_text +
                              "' must be a finite number > 0");
      }
      if (c2 != std::string::npos) {
        const std::string strikes_text = entry.substr(c2 + 1);
        try {
          std::size_t consumed = 0;
          const unsigned long long v = std::stoull(strikes_text, &consumed);
          FTSPM_REQUIRE(consumed == strikes_text.size() && v >= 1,
                        "mix strikes '" + strikes_text +
                            "' must be a positive integer");
          cls.spec.strikes = v;
        } catch (const InvalidArgument&) {
          throw;
        } catch (const std::exception&) {
          throw InvalidArgument("mix strikes '" + strikes_text +
                                "' must be a positive integer");
        }
      }
    }
    classes.push_back(std::move(cls));
  }
  FTSPM_REQUIRE(!classes.empty(), "mix must name at least one class");
  double total_weight = 0.0;
  for (const RequestClass& cls : classes) total_weight += cls.weight;
  FTSPM_REQUIRE(total_weight > 0.0,
                "mix needs at least one class with weight > 0");
  return classes;
}

std::vector<RequestClass> default_mix(bool quick) {
  // A YCSB-flavoured skew: many small probes, some medium scans, a few
  // heavy analytical runs. --quick shrinks the strike counts so a CI
  // smoke finishes in seconds.
  std::vector<RequestClass> classes(3);
  classes[0].name = "small";
  classes[0].weight = 8.0;
  classes[0].spec.strikes = quick ? 2'000 : 50'000;
  classes[1].name = "medium";
  classes[1].weight = 3.0;
  classes[1].spec.strikes = quick ? 10'000 : 200'000;
  classes[1].spec.protection = "parity";
  classes[2].name = "large";
  classes[2].weight = 1.0;
  classes[2].spec.strikes = quick ? 25'000 : 1'000'000;
  classes[2].spec.shards = 2;
  return classes;
}

namespace {

/// One connection's worth of work: its own client, RNG stream, and
/// per-class local stats (merged after the join — no shared mutable
/// state between workers).
struct Worker {
  std::vector<ClassStats> stats;
  std::uint64_t failed_connect = 0;

  void run(const LoadConfig& cfg, std::uint32_t index,
           std::uint64_t request_count) {
    stats.resize(cfg.classes.size());
    for (std::size_t c = 0; c < cfg.classes.size(); ++c) {
      stats[c].name = cfg.classes[c].name;
      stats[c].weight = cfg.classes[c].weight;
    }
    Client client = cfg.tcp_port != 0 ? Client::connect_tcp(cfg.tcp_port)
                                      : Client::connect_unix(cfg.socket_path);

    std::vector<double> weights;
    weights.reserve(cfg.classes.size());
    for (const RequestClass& cls : cfg.classes) weights.push_back(cls.weight);
    Rng rng = Rng::for_stream(cfg.seed, index);

    // In-flight requests by id: class index + submit time.
    struct InFlight {
      std::size_t cls;
      Clock::time_point sent_at;
    };
    std::map<std::string, InFlight> inflight;

    const auto start = Clock::now();
    const double interval_s = cfg.rate > 0.0 ? 1.0 / cfg.rate : 0.0;

    // Consumes one response frame; returns false on frames that don't
    // resolve a request (accepted, heartbeat, pong...).
    const auto consume = [&](const JsonValue& frame) {
      const JsonValue* type = frame.find("type");
      if (type == nullptr || !type->is_string()) return;
      const bool resolves = type->string == "result" ||
                            type->string == "error";
      if (!resolves) return;
      const JsonValue* idv = frame.find("id");
      if (idv == nullptr || !idv->is_string()) return;
      const auto it = inflight.find(idv->string);
      if (it == inflight.end()) return;
      ClassStats& s = stats[it->second.cls];
      const double latency =
          std::chrono::duration<double, std::milli>(Clock::now() -
                                                    it->second.sent_at)
              .count();
      if (type->string == "result") {
        s.completed += 1;
        s.latency_ms.observe(latency);
      } else {
        const JsonValue* code = frame.find("code");
        const std::string code_name =
            code != nullptr && code->is_string() ? code->string : "internal";
        if (code_name == "overloaded") {
          s.overloaded += 1;
        } else if (code_name == "cancelled") {
          s.cancelled += 1;
        } else {
          s.errors += 1;
        }
      }
      inflight.erase(it);
    };

    for (std::uint64_t r = 0; r < request_count; ++r) {
      if (interval_s > 0.0) {
        // Open loop: hold the arrival schedule; poll for responses
        // while waiting so the read side never falls behind.
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         static_cast<double>(r) * interval_s));
        while (Clock::now() < due) {
          const auto remaining =
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  due - Clock::now())
                  .count();
          const int wait_ms =
              static_cast<int>(std::clamp<long long>(remaining, 0, 50));
          try {
            if (auto frame = client.poll_frame(wait_ms)) consume(*frame);
          } catch (const Error&) {
            return;  // Daemon gone; report what resolved so far.
          }
        }
      }
      const std::size_t cls = rng.next_discrete(
          std::span<const double>(weights.data(), weights.size()));
      const std::string id = "c" + std::to_string(index) + "-r" +
                             std::to_string(r);
      stats[cls].sent += 1;
      const auto sent_at = Clock::now();
      try {
        client.send_line(campaign_request(cfg.classes[cls].spec, id,
                                          cfg.classes[cls].priority));
      } catch (const Error&) {
        stats[cls].errors += 1;
        return;
      }
      inflight.emplace(id, InFlight{cls, sent_at});
      if (interval_s <= 0.0) {
        // Closed loop: think-time zero — wait for this request to
        // resolve before submitting the next.
        try {
          while (inflight.count(id) != 0) consume(client.next_frame());
        } catch (const Error&) {
          return;
        }
      }
    }
    // Drain the stragglers (open loop keeps many in flight).
    try {
      while (!inflight.empty()) consume(client.next_frame());
    } catch (const Error&) {
      // Connection died with requests unresolved; their classes keep
      // the sent/completed imbalance as the record of the loss.
    }
  }
};

}  // namespace

LoadReport run_load(const LoadConfig& cfg) {
  FTSPM_REQUIRE(!cfg.classes.empty(), "load: request mix must not be empty");
  FTSPM_REQUIRE(cfg.connections >= 1, "load: need at least one connection");
  FTSPM_REQUIRE(cfg.requests >= 1, "load: need at least one request");
  for (const RequestClass& cls : cfg.classes) validate_spec(cls.spec);

  const auto start = Clock::now();
  std::vector<Worker> workers(cfg.connections);
  std::vector<std::thread> threads;
  threads.reserve(cfg.connections);
  for (std::uint32_t i = 0; i < cfg.connections; ++i) {
    // Spread the total request budget; early connections absorb the
    // remainder.
    const std::uint64_t base = cfg.requests / cfg.connections;
    const std::uint64_t extra = i < cfg.requests % cfg.connections ? 1 : 0;
    threads.emplace_back([&cfg, &workers, i, n = base + extra] {
      try {
        workers[i].run(cfg, i, n);
      } catch (const Error&) {
        workers[i].failed_connect += 1;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  LoadReport report;
  report.wall_ms = ms_since(start);
  report.classes.resize(cfg.classes.size());
  for (std::size_t c = 0; c < cfg.classes.size(); ++c) {
    ClassStats& merged = report.classes[c];
    merged.name = cfg.classes[c].name;
    merged.weight = cfg.classes[c].weight;
    for (const Worker& w : workers) {
      if (w.stats.size() != cfg.classes.size()) continue;  // Never connected.
      const ClassStats& s = w.stats[c];
      merged.sent += s.sent;
      merged.completed += s.completed;
      merged.overloaded += s.overloaded;
      merged.cancelled += s.cancelled;
      merged.errors += s.errors;
      merged.latency_ms.merge_from(s.latency_ms);
    }
    report.sent += merged.sent;
    report.completed += merged.completed;
    report.overloaded += merged.overloaded;
    report.errors += merged.errors;
  }
  return report;
}

std::string LoadReport::to_json() const {
  JsonWriter w;
  w.begin_object()
      .field("schema", static_cast<std::uint64_t>(1))
      .field("wall_ms", wall_ms)
      .field("sent", sent)
      .field("completed", completed)
      .field("overloaded", overloaded)
      .field("shed_rate", shed_rate())
      .field("errors", errors);
  w.begin_array("classes");
  for (const ClassStats& s : classes) {
    w.begin_object()
        .field("name", s.name)
        .field("weight", s.weight)
        .field("sent", s.sent)
        .field("completed", s.completed)
        .field("overloaded", s.overloaded)
        .field("shed_rate", s.sent != 0 ? static_cast<double>(s.overloaded) /
                                              static_cast<double>(s.sent)
                                        : 0.0)
        .field("cancelled", s.cancelled)
        .field("errors", s.errors)
        .field("p50_ms", s.latency_ms.quantile(0.50))
        .field("p95_ms", s.latency_ms.quantile(0.95))
        .field("p99_ms", s.latency_ms.quantile(0.99))
        .field("mean_ms", s.latency_ms.mean())
        .field("max_ms", s.latency_ms.max())
        .end_object();
  }
  w.end_array().end_object();
  return w.str();
}

std::string LoadReport::to_csv() const {
  std::string out =
      "class,weight,sent,completed,overloaded,cancelled,errors,shed_rate,"
      "p50_ms,p95_ms,p99_ms,mean_ms,max_ms\n";
  char buf[64];
  const auto num = [&buf](double v) {
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::string(buf);
  };
  for (const ClassStats& s : classes)
    out += s.name + "," + num(s.weight) + "," + std::to_string(s.sent) + "," +
           std::to_string(s.completed) + "," + std::to_string(s.overloaded) +
           "," + std::to_string(s.cancelled) + "," +
           std::to_string(s.errors) + "," +
           num(s.sent != 0 ? static_cast<double>(s.overloaded) /
                                 static_cast<double>(s.sent)
                           : 0.0) +
           "," + num(s.latency_ms.quantile(0.50)) +
           "," + num(s.latency_ms.quantile(0.95)) + "," +
           num(s.latency_ms.quantile(0.99)) + "," + num(s.latency_ms.mean()) +
           "," + num(s.latency_ms.max()) + "\n";
  return out;
}

}  // namespace ftspm::serve
