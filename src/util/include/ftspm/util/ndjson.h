// Incremental NDJSON (newline-delimited JSON) framing.
//
// NdjsonReader turns an arbitrary byte stream — socket reads, file
// chunks, a whole document at once — into complete NDJSON records.
// Bytes go in with feed() in whatever pieces the transport produced;
// next() hands back one parsed document per complete line. The reader
// owns the three framing headaches every NDJSON consumer otherwise
// reimplements:
//
//  * partial reads — a line split across feed() calls is buffered until
//    its terminating newline arrives;
//  * CRLF — a carriage return before the newline is stripped, and
//    blank / whitespace-only lines are skipped, matching parse_ndjson;
//  * oversized records — a line that exceeds the hard cap throws
//    ftspm::Error *before* the buffer grows unboundedly, which is what
//    makes the reader safe on untrusted socket input (the serve
//    daemon's framing layer).
//
// parse_ndjson (util/json.h) is a thin wrapper: feed the whole text,
// finish(), drain. It is strict: one malformed line throws. The run
// ledger is the one NDJSON file read leniently: obs::scan_ledger splits
// its lines itself, so a torn line is skipped with a warning naming
// its file line, not a failure of the whole read.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "ftspm/util/json.h"

namespace ftspm {

class NdjsonReader {
 public:
  /// Default per-record cap: generous for tool artefacts, small enough
  /// that a hostile peer cannot balloon the buffer.
  static constexpr std::size_t kDefaultMaxRecordBytes = 1u << 20;

  /// `max_record_bytes` bounds one line (exclusive of its newline);
  /// 0 means unlimited (trusted local files only).
  explicit NdjsonReader(std::size_t max_record_bytes = kDefaultMaxRecordBytes);

  /// Appends raw bytes (any split, including mid-record) to the
  /// buffer. Throws ftspm::Error if the unterminated tail exceeds the
  /// record cap.
  void feed(std::string_view bytes);

  /// Marks end of input: a final unterminated line becomes available
  /// to next()/next_line() as if newline-terminated. feed() after
  /// finish() throws.
  void finish();

  /// The next complete line — CR stripped, blank lines skipped — or
  /// std::nullopt when more input is needed (or the stream is done).
  std::optional<std::string> next_line();

  /// next_line() parsed as one strict JSON document. Throws
  /// ftspm::Error tagged "ndjson line N" on malformed input.
  std::optional<JsonValue> next();

  /// 1-based line number of the record last returned (0 before any).
  std::size_t line_number() const noexcept { return line_number_; }

  /// Bytes buffered waiting for a newline.
  std::size_t buffered_bytes() const noexcept {
    return buffer_.size() - consumed_;
  }

  /// True once finish() was called and the buffer drained: no further
  /// record can ever appear.
  bool exhausted() const noexcept;

 private:
  void compact();

  std::size_t max_record_bytes_;
  std::string buffer_;
  std::size_t consumed_ = 0;  ///< Prefix of buffer_ already returned.
  std::size_t line_number_ = 0;
  std::size_t scanned_ = 0;  ///< Prefix known to contain no newline.
  bool finished_ = false;
};

}  // namespace ftspm
