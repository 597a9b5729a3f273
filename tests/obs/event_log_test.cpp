#include "ftspm/obs/event_log.h"

#include <gtest/gtest.h>

#include "ftspm/util/json.h"

namespace ftspm::obs {
namespace {

TEST(EventLogTest, RecordsCarrySchemaSequenceAndFields) {
  EventLog log;
  log.emit("phase_start", 0,
           {TraceArg::str("kind", "static"), TraceArg::num("shards",
                                                           std::uint64_t{4})});
  log.emit("phase_end", 1000, {TraceArg::num("sdc", std::uint64_t{7})});
  EXPECT_EQ(log.record_count(), 2u);

  const std::vector<JsonValue> lines = parse_ndjson(log.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_DOUBLE_EQ(lines[0].at("schema").number, 1.0);
  EXPECT_DOUBLE_EQ(lines[0].at("seq").number, 0.0);
  EXPECT_DOUBLE_EQ(lines[0].at("ts").number, 0.0);
  EXPECT_EQ(lines[0].at("event").string, "phase_start");
  EXPECT_EQ(lines[0].at("kind").string, "static");
  EXPECT_DOUBLE_EQ(lines[0].at("shards").number, 4.0);
  EXPECT_DOUBLE_EQ(lines[1].at("seq").number, 1.0);
  EXPECT_DOUBLE_EQ(lines[1].at("ts").number, 1000.0);
  EXPECT_DOUBLE_EQ(lines[1].at("sdc").number, 7.0);
}

TEST(EventLogTest, StrIsStableAcrossCalls) {
  EventLog log;
  log.emit("run_manifest", 0, {TraceArg::str("command", "test")});
  EXPECT_EQ(log.str(), log.str());
}

}  // namespace
}  // namespace ftspm::obs
