// Observability: the periodic NDJSON writer.
//
// PeriodicWriter owns one thread that appends a line to a file every
// `interval_ms`: the campaign heartbeat stream (exec) and the serve
// daemon's telemetry snapshots (serve) both run on it. The caller
// supplies the line; the writer supplies the schedule and the I/O
// contract:
//
//   - the first record is written as soon as the thread starts, and a
//     final one (line_fn(true)) at stop(), so even a run shorter than
//     the interval leaves at least two records;
//   - only the last record is built with final == true;
//   - a failed write is reported once on stderr, never thrown, so a
//     full disk cannot take down the run it is watching.
//
// line_fn runs on the writer thread only, never concurrently with
// itself; it must not throw.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

namespace ftspm::obs {

class PeriodicWriter {
 public:
  using LineFn = std::function<std::string(bool final)>;

  /// Opens `path` for appending (throws InvalidArgument when it
  /// cannot) and starts the thread. `what` names the stream in the
  /// open error and the write warning ("heartbeat", "telemetry").
  /// `interval_ms` is clamped to >= 1.
  PeriodicWriter(std::string what, std::string path, std::uint32_t interval_ms,
                 LineFn line_fn);
  ~PeriodicWriter();

  PeriodicWriter(const PeriodicWriter&) = delete;
  PeriodicWriter& operator=(const PeriodicWriter&) = delete;

  /// Writes the final record and joins the thread. Idempotent; the
  /// destructor calls it too.
  void stop();

 private:
  void run();
  void write(bool final);

  const std::string what_;
  const std::string path_;
  const std::uint32_t interval_ms_;
  const LineFn line_fn_;
  std::ofstream out_;
  bool write_failed_ = false;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;  // Last: starts once every member above exists.
};

}  // namespace ftspm::obs
