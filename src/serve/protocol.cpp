#include "ftspm/serve/protocol.h"

#include <optional>

#include "ftspm/util/error.h"

namespace ftspm::serve {

std::string_view error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::BadRequest: return "bad_request";
    case ErrorCode::Overloaded: return "overloaded";
    case ErrorCode::Cancelled: return "cancelled";
    case ErrorCode::NotFound: return "not_found";
    case ErrorCode::ShuttingDown: return "shutting_down";
    case ErrorCode::Internal: return "internal";
  }
  return "internal";
}

namespace {

std::string string_field(const JsonValue& v, std::string_view key,
                         std::string_view fallback) {
  const JsonValue* f = v.find(key);
  if (f == nullptr) return std::string(fallback);
  if (!f->is_string())
    throw InvalidArgument("request." + std::string(key) + " must be a string");
  return f->string;
}

std::uint32_t priority_field(const JsonValue& v) {
  const JsonValue* f = v.find("priority");
  if (f == nullptr) return 0;
  const std::optional<std::uint64_t> n = json_u64(*f, 1'000'000);
  if (!n.has_value())
    throw InvalidArgument(
        "request.priority must be an integer in [0, 1000000]");
  return static_cast<std::uint32_t>(*n);
}

}  // namespace

Request parse_request(const JsonValue& value) {
  if (!value.is_object())
    throw InvalidArgument("request frame must be a JSON object");
  const std::string type = string_field(value, "type", "");
  if (type.empty())
    throw InvalidArgument("request frame needs a \"type\" field");
  Request req;
  if (type == "ping") {
    req.type = Request::Type::Ping;
  } else if (type == "status") {
    req.type = Request::Type::Status;
  } else if (type == "metrics") {
    req.type = Request::Type::Metrics;
  } else if (type == "shutdown") {
    req.type = Request::Type::Shutdown;
  } else if (type == "cancel") {
    req.type = Request::Type::Cancel;
    req.id = string_field(value, "id", "");
    if (req.id.empty()) throw InvalidArgument("cancel needs the target \"id\"");
  } else if (type == "campaign") {
    req.type = Request::Type::Campaign;
    req.id = string_field(value, "id", "");
    req.priority = priority_field(value);
    const JsonValue* spec = value.find("spec");
    req.spec = spec != nullptr ? spec_from_json(*spec) : CampaignSpec{};
  } else {
    throw InvalidArgument("unknown request type '" + type + "'");
  }
  return req;
}

std::string ping_request() { return "{\"type\":\"ping\"}"; }
std::string status_request() { return "{\"type\":\"status\"}"; }
std::string metrics_request() { return "{\"type\":\"metrics\"}"; }
std::string shutdown_request() { return "{\"type\":\"shutdown\"}"; }

std::string cancel_request(std::string_view id) {
  JsonWriter w;
  w.begin_object().field("type", "cancel").field("id", id).end_object();
  return w.str();
}

std::string campaign_request(const CampaignSpec& spec, std::string_view id,
                             std::uint32_t priority) {
  JsonWriter w;
  w.begin_object().field("type", "campaign");
  if (!id.empty()) w.field("id", id);
  w.field("priority", static_cast<std::uint64_t>(priority));
  w.raw_field("spec", spec_to_json(spec));
  w.end_object();
  return w.str();
}

std::string pong_frame() {
  JsonWriter w;
  w.begin_object()
      .field("type", "pong")
      .field("protocol", static_cast<std::uint64_t>(kProtocolVersion))
      .end_object();
  return w.str();
}

std::string accepted_frame(std::string_view id, std::uint64_t queue_depth) {
  JsonWriter w;
  w.begin_object()
      .field("type", "accepted")
      .field("id", id)
      .field("queue_depth", queue_depth)
      .end_object();
  return w.str();
}

std::string heartbeat_frame(std::string_view id, std::uint64_t done,
                            std::uint64_t total) {
  JsonWriter w;
  w.begin_object()
      .field("type", "heartbeat")
      .field("id", id)
      .field("done", done)
      .field("total", total)
      .end_object();
  return w.str();
}

std::string result_frame(std::string_view id, const obs::LedgerRecord& record,
                         std::string_view run_id, bool complete) {
  JsonWriter w;
  w.begin_object()
      .field("type", "result")
      .field("id", id)
      .field("complete", complete);
  if (!run_id.empty()) w.field("run_id", run_id);
  w.field("workload", record.workload)
      .field("seed", record.seed)
      .field("shards", static_cast<std::uint64_t>(record.shards));
  w.begin_object("counters");
  for (const auto& [name, value] : record.counters) w.field(name, value);
  w.end_object();
  w.begin_object("metrics");
  for (const auto& [name, value] : record.metrics) w.field(name, value);
  w.end_object();
  w.field("wall_ms", record.wall_ms)
      .field("strikes_per_sec", record.strikes_per_sec)
      .end_object();
  return w.str();
}

std::string status_frame(const ServerStatus& s) {
  JsonWriter w;
  w.begin_object()
      .field("type", "status")
      .field("accepting", s.accepting)
      .field("queued", s.queued)
      .field("running", s.running)
      .field("running_id", s.running_id)
      .field("admitted", s.admitted)
      .field("completed", s.completed)
      .field("rejected_overload", s.rejected_overload)
      .field("cancelled", s.cancelled)
      .field("failed", s.failed)
      .field("max_queue", s.max_queue)
      .field("jobs", static_cast<std::uint64_t>(s.jobs))
      .end_object();
  return w.str();
}

std::string metrics_frame(const ServerStatus& s, double uptime_ms,
                          std::string_view registry_json) {
  JsonWriter w;
  w.begin_object()
      .field("type", "metrics")
      .field("protocol", static_cast<std::uint64_t>(kProtocolVersion))
      .field("uptime_ms", uptime_ms)
      .field("accepting", s.accepting)
      .field("queued", s.queued)
      .field("running", s.running)
      .field("admitted", s.admitted)
      .field("completed", s.completed)
      .field("rejected_overload", s.rejected_overload)
      .field("cancelled", s.cancelled)
      .field("failed", s.failed);
  w.raw_field("registry", registry_json);
  w.end_object();
  return w.str();
}

std::string cancelled_frame(std::string_view id) {
  JsonWriter w;
  w.begin_object().field("type", "cancelled").field("id", id).end_object();
  return w.str();
}

std::string shutting_down_frame() {
  JsonWriter w;
  w.begin_object().field("type", "shutting_down").end_object();
  return w.str();
}

std::string error_frame(std::string_view id, ErrorCode code,
                        std::string_view message) {
  JsonWriter w;
  w.begin_object().field("type", "error");
  if (!id.empty()) w.field("id", id);
  w.field("code", error_code_name(code)).field("message", message)
      .end_object();
  return w.str();
}

}  // namespace ftspm::serve
