#include "ftspm/obs/periodic_writer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "ftspm/util/error.h"

namespace ftspm::obs {

PeriodicWriter::PeriodicWriter(std::string what, std::string path,
                               std::uint32_t interval_ms, LineFn line_fn)
    : what_(std::move(what)), path_(std::move(path)),
      interval_ms_(std::max<std::uint32_t>(interval_ms, 1)),
      line_fn_(std::move(line_fn)) {
  out_.open(path_, std::ios::binary | std::ios::app);
  if (!out_.good())
    throw InvalidArgument("cannot open " + what_ + " output '" + path_ + "'");
  thread_ = std::thread([this] { run(); });
}

PeriodicWriter::~PeriodicWriter() { stop(); }

void PeriodicWriter::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void PeriodicWriter::run() {
  write(/*final=*/false);  // At least one record, however short the run.
  std::unique_lock<std::mutex> lock(mutex_);
  while (!cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                       [this] { return stopped_; })) {
    lock.unlock();
    write(/*final=*/false);
    lock.lock();
  }
  lock.unlock();
  write(/*final=*/true);
}

void PeriodicWriter::write(bool final) {
  out_ << line_fn_(final) << '\n';
  out_.flush();
  if (!out_.good() && !write_failed_) {
    write_failed_ = true;
    std::fprintf(stderr, "warning: %s write to '%s' failed\n", what_.c_str(),
                 path_.c_str());
  }
}

}  // namespace ftspm::obs
