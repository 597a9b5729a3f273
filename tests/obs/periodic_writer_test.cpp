#include "ftspm/obs/periodic_writer.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ftspm/util/json.h"

namespace ftspm::obs {
namespace {

std::string temp_path(const char* stem) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + stem + "." +
         std::to_string(::getpid());
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A line function that numbers its records and flags the final one.
PeriodicWriter::LineFn counting_line(std::atomic<int>& calls) {
  return [&calls](bool final) {
    JsonWriter w;
    w.begin_object()
        .field("n", static_cast<std::uint64_t>(calls.fetch_add(1)))
        .field("final", final)
        .end_object();
    return w.str();
  };
}

TEST(PeriodicWriterTest, FirstRecordIsImmediateAndOnlyTheLastIsFinal) {
  const std::string path = temp_path("ftspm_periodic_first");
  std::remove(path.c_str());
  std::atomic<int> calls{0};
  {
    // An hour-long interval: any record before stop() is the
    // immediate first one.
    PeriodicWriter writer("test", path, 3'600'000, counting_line(calls));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (calls.load() == 0 && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(calls.load(), 1);
    writer.stop();
    writer.stop();  // Idempotent.
  }
  const std::vector<JsonValue> lines = parse_ndjson(slurp(path));
  std::remove(path.c_str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_FALSE(lines[0].at("final").boolean);
  EXPECT_TRUE(lines[1].at("final").boolean);
}

TEST(PeriodicWriterTest, ShortIntervalAppendsInOrderWithOneFinalRecord) {
  const std::string path = temp_path("ftspm_periodic_many");
  std::remove(path.c_str());
  std::atomic<int> calls{0};
  {
    PeriodicWriter writer("test", path, 1, counting_line(calls));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (calls.load() < 4 && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }  // The destructor stops the writer.
  const std::vector<JsonValue> lines = parse_ndjson(slurp(path));
  std::remove(path.c_str());
  ASSERT_GE(lines.size(), 5u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_DOUBLE_EQ(lines[i].at("n").number, static_cast<double>(i));
    EXPECT_EQ(lines[i].at("final").boolean, i + 1 == lines.size()) << i;
  }
}

TEST(PeriodicWriterTest, WriteFailureWarnsOnceAndNeverThrows) {
  std::atomic<int> calls{0};
  testing::internal::CaptureStderr();
  EXPECT_NO_THROW({
    PeriodicWriter writer("test", "/dev/full", 1, counting_line(calls));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (calls.load() < 4 && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    writer.stop();
  });
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_GE(calls.load(), 5);
  EXPECT_EQ(err, "warning: test write to '/dev/full' failed\n");
}

}  // namespace
}  // namespace ftspm::obs
