#include "ftspm/obs/trace_sink.h"

#include <gtest/gtest.h>

#include "ftspm/obs/timer.h"
#include "ftspm/util/error.h"
#include "ftspm/util/json.h"

namespace ftspm::obs {
namespace {

const JsonValue* find_event(const JsonValue& events, std::string_view name,
                            std::string_view phase) {
  for (const JsonValue& e : events.array) {
    const JsonValue* n = e.find("name");
    const JsonValue* ph = e.find("ph");
    if (ph != nullptr && ph->string == phase &&
        (name.empty() || (n != nullptr && n->string == name)))
      return &e;
  }
  return nullptr;
}

TEST(TraceSinkTest, EmitsParseableChromeTraceJson) {
  TraceEventSink sink;
  const auto phases = sink.lane("sim", "phases");
  const auto dma = sink.lane("sim", "dma");
  sink.begin(phases, "main", 0);
  sink.complete(dma, "load A", 10, 5,
                {TraceArg::str("region", "D-STT"),
                 TraceArg::num("words", std::uint64_t{64})});
  sink.instant(phases, "evict B", 12);
  sink.value(dma, "fills", 20, 3.0);
  sink.end(phases, 100);

  const JsonValue doc = parse_json(sink.str());
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());

  // Metadata names both lanes plus their shared process row.
  const JsonValue* pname = find_event(events, "", "M");
  ASSERT_NE(pname, nullptr);

  const JsonValue* b = find_event(events, "main", "B");
  ASSERT_NE(b, nullptr);
  EXPECT_DOUBLE_EQ(b->at("ts").number, 0.0);

  const JsonValue* x = find_event(events, "load A", "X");
  ASSERT_NE(x, nullptr);
  EXPECT_DOUBLE_EQ(x->at("dur").number, 5.0);
  EXPECT_EQ(x->at("args").at("region").string, "D-STT");
  EXPECT_DOUBLE_EQ(x->at("args").at("words").number, 64.0);

  const JsonValue* i = find_event(events, "evict B", "i");
  ASSERT_NE(i, nullptr);
  EXPECT_EQ(i->at("s").string, "t");

  const JsonValue* c = find_event(events, "fills", "C");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->at("args").at("value").number, 3.0);
}

TEST(TraceSinkTest, LaneRegistrationOrderFixesPidAndTid) {
  TraceEventSink sink;
  const auto a = sink.lane("p1", "t1");
  const auto b = sink.lane("p1", "t2");
  const auto c = sink.lane("p2", "t1");
  EXPECT_EQ(sink.lane("p1", "t1"), a);  // find, not re-register
  sink.instant(a, "ea", 0);
  sink.instant(b, "eb", 1);
  sink.instant(c, "ec", 2);

  const JsonValue doc = parse_json(sink.str());
  const JsonValue& events = doc.at("traceEvents");
  const JsonValue* ea = find_event(events, "ea", "i");
  const JsonValue* eb = find_event(events, "eb", "i");
  const JsonValue* ec = find_event(events, "ec", "i");
  ASSERT_NE(ea, nullptr);
  ASSERT_NE(eb, nullptr);
  ASSERT_NE(ec, nullptr);
  EXPECT_EQ(ea->at("pid").number, eb->at("pid").number);
  EXPECT_NE(ea->at("tid").number, eb->at("tid").number);
  EXPECT_NE(ea->at("pid").number, ec->at("pid").number);
}

TEST(TraceSinkTest, SerializationIsDeterministic) {
  auto build = [] {
    TraceEventSink sink;
    const auto lane = sink.lane("sim", "phases");
    sink.begin(lane, "phase \"quoted\"", 1);
    sink.end(lane, 2);
    return sink.str();
  };
  EXPECT_EQ(build(), build());
}

// Recording into two sinks and appending the second to the first reads
// exactly as recording everything into one: the appended sink's lanes
// are found or registered by name, in its order, and its events keep
// their order on the lanes they map to.
TEST(TraceSinkTest, AppendRemapsLanesByName) {
  const auto record_first = [](TraceEventSink& sink) {
    const auto suite = sink.lane("suite", "benchmarks");
    const auto dma = sink.lane("sim", "dma");
    sink.complete(dma, "load A", 10, 5, {TraceArg::str("region", "D-STT")});
    sink.complete(suite, "crc32", 0, 40);
  };
  const auto record_second = [](TraceEventSink& sink) {
    const auto mda = sink.lane("mda", "decisions");
    const auto dma = sink.lane("sim", "dma");
    const auto phases = sink.lane("sim", "phases");
    sink.begin(phases, "main", 40);
    sink.instant(mda, "evict B", 3);
    sink.complete(dma, "load C", 50, 2);
    sink.value(dma, "fills", 51, 4.0);
    sink.end(phases, 60);
  };
  TraceEventSink whole;
  record_first(whole);
  record_second(whole);

  TraceEventSink first;
  TraceEventSink second;
  record_first(first);
  record_second(second);
  first.append(second);
  EXPECT_EQ(first.event_count(), whole.event_count());
  EXPECT_EQ(first.str(), whole.str());
  EXPECT_THROW(first.append(first), Error);
}

TEST(PhaseSpanTest, EmitsBalancedBeginEnd) {
  TraceEventSink sink;
  const auto lane = sink.lane("suite", "benchmarks");
  std::uint64_t clock = 5;
  {
    PhaseSpan span(&sink, lane, "bench", [&clock] { return clock; });
    clock = 9;
  }
  const JsonValue doc = parse_json(sink.str());
  const JsonValue& events = doc.at("traceEvents");
  const JsonValue* b = find_event(events, "bench", "B");
  const JsonValue* e = find_event(events, "", "E");
  ASSERT_NE(b, nullptr);
  ASSERT_NE(e, nullptr);
  EXPECT_DOUBLE_EQ(b->at("ts").number, 5.0);
  EXPECT_DOUBLE_EQ(e->at("ts").number, 9.0);
}

TEST(PhaseSpanTest, NullSinkIsANoOp) {
  PhaseSpan span(static_cast<TraceEventSink*>(nullptr), 0, "x",
                 [] { return std::uint64_t{0}; });
}

}  // namespace
}  // namespace ftspm::obs
