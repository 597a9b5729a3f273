#include "ftspm/obs/trace_sink.h"

#include <algorithm>
#include <fstream>

#include "ftspm/util/error.h"
#include "ftspm/util/json.h"

namespace ftspm::obs {

TraceArg TraceArg::str(std::string_view key, std::string_view value) {
  return TraceArg{std::string(key), JsonWriter::quote(value)};
}

TraceArg TraceArg::num(std::string_view key, std::uint64_t value) {
  return TraceArg{std::string(key), std::to_string(value)};
}

TraceArg TraceArg::num(std::string_view key, double value) {
  JsonWriter w;
  w.begin_array().element(value).end_array();
  const std::string doc = w.str();  // "[<number>]"
  return TraceArg{std::string(key), doc.substr(1, doc.size() - 2)};
}

TraceEventSink::LaneId TraceEventSink::lane(std::string_view process,
                                            std::string_view thread) {
  for (std::size_t i = 0; i < lanes_.size(); ++i)
    if (lanes_[i].process == process && lanes_[i].thread == thread)
      return static_cast<LaneId>(i);

  std::uint32_t pid = 0;
  for (std::size_t i = 0; i < processes_.size(); ++i)
    if (processes_[i] == process) pid = static_cast<std::uint32_t>(i + 1);
  if (pid == 0) {
    processes_.emplace_back(process);
    pid = static_cast<std::uint32_t>(processes_.size());
  }
  std::uint32_t tid = 1;
  for (const Lane& l : lanes_)
    if (l.pid == pid) tid = std::max(tid, l.tid + 1);
  lanes_.push_back(Lane{std::string(process), std::string(thread), pid, tid});
  return static_cast<LaneId>(lanes_.size() - 1);
}

void TraceEventSink::begin(LaneId lane, std::string_view name,
                           std::uint64_t ts, std::vector<TraceArg> args) {
  events_.push_back(
      Event{'B', lane, std::string(name), ts, 0, 0.0, std::move(args)});
}

void TraceEventSink::end(LaneId lane, std::uint64_t ts) {
  events_.push_back(Event{'E', lane, std::string(), ts, 0, 0.0, {}});
}

void TraceEventSink::complete(LaneId lane, std::string_view name,
                              std::uint64_t ts, std::uint64_t dur,
                              std::vector<TraceArg> args) {
  events_.push_back(
      Event{'X', lane, std::string(name), ts, dur, 0.0, std::move(args)});
}

void TraceEventSink::instant(LaneId lane, std::string_view name,
                             std::uint64_t ts, std::vector<TraceArg> args) {
  events_.push_back(
      Event{'i', lane, std::string(name), ts, 0, 0.0, std::move(args)});
}

void TraceEventSink::value(LaneId lane, std::string_view name,
                           std::uint64_t ts, double value) {
  events_.push_back(Event{'C', lane, std::string(name), ts, 0, value, {}});
}

std::string TraceEventSink::str() const {
  JsonWriter w;
  w.begin_object();
  w.begin_array("traceEvents");

  // Metadata first: name each process row and each thread track.
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    w.begin_object()
        .field("ph", "M")
        .field("name", "process_name")
        .field("pid", static_cast<std::uint64_t>(i + 1))
        .field("tid", static_cast<std::uint64_t>(0));
    w.begin_object("args").field("name", processes_[i]).end_object();
    w.end_object();
  }
  for (const Lane& l : lanes_) {
    w.begin_object()
        .field("ph", "M")
        .field("name", "thread_name")
        .field("pid", static_cast<std::uint64_t>(l.pid))
        .field("tid", static_cast<std::uint64_t>(l.tid));
    w.begin_object("args").field("name", l.thread).end_object();
    w.end_object();
  }

  for (const Event& e : events_) {
    const Lane& l = lanes_[e.lane];
    w.begin_object().field("ph", std::string_view(&e.phase, 1));
    if (e.phase != 'E') w.field("name", e.name);
    w.field("pid", static_cast<std::uint64_t>(l.pid))
        .field("tid", static_cast<std::uint64_t>(l.tid))
        .field("ts", e.ts);
    if (e.phase == 'X') w.field("dur", e.dur);
    if (e.phase == 'i') w.field("s", "t");  // thread-scoped instant
    if (e.phase == 'C') {
      w.begin_object("args").field("value", e.counter_value).end_object();
    } else if (!e.args.empty()) {
      w.begin_object("args");
      for (const TraceArg& a : e.args) w.raw_field(a.key, a.value);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.field("displayTimeUnit", "ms");
  w.end_object();
  return w.str();
}

void TraceEventSink::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out.good())
    throw InvalidArgument("cannot open trace output '" + path + "'");
  out << str();
  out.close();
  if (!out.good()) throw Error("failed writing trace output '" + path + "'");
}

namespace {
TraceEventSink* g_current_trace = nullptr;
}  // namespace

TraceEventSink* current_trace() noexcept {
  // The trace sink is single-writer: worker threads running under a
  // per-shard registry redirect never see it, only the coordinator
  // emits (deterministic) trace records.
  return thread_registry_redirected() ? nullptr : g_current_trace;
}

TraceScope::TraceScope(TraceEventSink* sink) : prev_(g_current_trace) {
  g_current_trace = sink;
}

TraceScope::~TraceScope() { g_current_trace = prev_; }

}  // namespace ftspm::obs
