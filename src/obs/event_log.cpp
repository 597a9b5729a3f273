#include "ftspm/obs/event_log.h"

#include <fstream>

#include "ftspm/util/error.h"
#include "ftspm/util/json.h"

namespace ftspm::obs {

void EventLog::emit(std::string_view event, std::uint64_t ts,
                    std::vector<TraceArg> fields) {
  records_.push_back(Record{std::string(event), ts, std::move(fields)});
}

std::string EventLog::str() const {
  std::string out;
  for (std::size_t seq = 0; seq < records_.size(); ++seq) {
    const Record& r = records_[seq];
    JsonWriter w;
    w.begin_object()
        .field("schema", static_cast<std::uint64_t>(kSchemaVersion))
        .field("seq", static_cast<std::uint64_t>(seq))
        .field("ts", r.ts)
        .field("event", r.event);
    for (const TraceArg& f : r.fields) w.raw_field(f.key, f.value);
    w.end_object();
    out += w.str();
    out += '\n';
  }
  return out;
}

void EventLog::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out.good())
    throw InvalidArgument("cannot open event-log output '" + path + "'");
  out << str();
  out.close();
  if (!out.good())
    throw Error("failed writing event-log output '" + path + "'");
}

namespace {
EventLog* g_current_event_log = nullptr;
}  // namespace

EventLog* current_event_log() noexcept {
  // Single-writer, deterministic sink: invisible to suppressed or
  // redirected (worker) threads — the coordinator emits for them.
  if (!enabled() || thread_registry_redirected()) return nullptr;
  return g_current_event_log;
}

EventLogScope::EventLogScope(EventLog* log) : prev_(g_current_event_log) {
  g_current_event_log = log;
}

EventLogScope::~EventLogScope() { g_current_event_log = prev_; }

}  // namespace ftspm::obs
