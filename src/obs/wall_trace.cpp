#include "ftspm/obs/wall_trace.h"

namespace ftspm::obs {

WallTrace::WallTrace() : epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t WallTrace::now_us() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
}

WallTrace::LaneId WallTrace::lane(std::string_view process,
                                  std::string_view thread) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sink_.lane(process, thread);
}

void WallTrace::begin(LaneId lane, std::string_view name,
                      std::vector<TraceArg> args) {
  const std::uint64_t ts = now_us();
  const std::lock_guard<std::mutex> lock(mutex_);
  sink_.begin(lane, name, ts, std::move(args));
}

void WallTrace::end(LaneId lane) {
  const std::uint64_t ts = now_us();
  const std::lock_guard<std::mutex> lock(mutex_);
  sink_.end(lane, ts);
}

void WallTrace::complete(LaneId lane, std::string_view name,
                         std::uint64_t start_us, std::uint64_t end_us,
                         std::vector<TraceArg> args) {
  const std::uint64_t dur = end_us > start_us ? end_us - start_us : 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  sink_.complete(lane, name, start_us, dur, std::move(args));
}

void WallTrace::instant(LaneId lane, std::string_view name,
                        std::vector<TraceArg> args) {
  const std::uint64_t ts = now_us();
  const std::lock_guard<std::mutex> lock(mutex_);
  sink_.instant(lane, name, ts, std::move(args));
}

void WallTrace::value(LaneId lane, std::string_view name, double value) {
  const std::uint64_t ts = now_us();
  const std::lock_guard<std::mutex> lock(mutex_);
  sink_.value(lane, name, ts, value);
}

void WallTrace::write_file(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  sink_.write_file(path);
}

}  // namespace ftspm::obs
