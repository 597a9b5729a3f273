// Block-level access traces.
//
// The whole reproduction is trace-driven: workload generators emit a
// deterministic stream of block accesses which the profiler, the MDA
// mapping pipeline, the cycle-level simulator, and the fault campaign
// all consume. Events are *aggregated*: one TraceEvent can represent a
// run of `repeat` consecutive word accesses (a streaming loop), which
// keeps multi-million-access workloads compact while preserving exact
// per-word counts.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ftspm/util/error.h"
#include "ftspm/util/format.h"
#include "ftspm/workload/program.h"

namespace ftspm {

/// What one trace event does to its block.
enum class AccessType : std::uint8_t {
  Fetch,      ///< Instruction fetch from a code block.
  Read,       ///< Data word read.
  Write,      ///< Data word write.
  CallEnter,  ///< Marker: a call into a code block begins; `offset`
              ///< carries the stack bytes the activation needs.
  CallExit,   ///< Marker: the matching return.
};

const char* to_string(AccessType type) noexcept;

/// One (possibly aggregated) trace event.
///
/// Semantics of an event with repeat == n > 1: n word accesses to
/// consecutive word offsets offset, offset+1, ... wrapping modulo the
/// block's word count; each access is preceded by `gap` cycles of pure
/// compute. CallEnter/CallExit markers always have repeat == 1 and cost
/// no memory access themselves.
struct TraceEvent {
  BlockId block = 0;
  AccessType type = AccessType::Read;
  std::uint16_t gap = 0;      ///< Compute cycles before each access.
  std::uint32_t offset = 0;   ///< Starting word offset (stack bytes for
                              ///< CallEnter).
  std::uint32_t repeat = 1;   ///< Number of consecutive word accesses.

  bool is_marker() const noexcept {
    return type == AccessType::CallEnter || type == AccessType::CallExit;
  }
  bool is_memory_access() const noexcept { return !is_marker(); }

  /// Nominal cycles the event occupies on a 1-cycle-per-access machine
  /// (the profiler's timebase). Markers take zero time.
  std::uint64_t nominal_cycles() const noexcept {
    if (is_marker()) return 0;
    return static_cast<std::uint64_t>(repeat) * (gap + 1ULL);
  }

  /// Word accesses this event performs.
  std::uint64_t accesses() const noexcept { return is_marker() ? 0 : repeat; }
};

/// The word visits of one access run, walked per run instead of per
/// word. Visit k (0 <= k < repeat) lands on word (offset + k) mod words;
/// all index arithmetic is 64-bit, so offset + repeat never wraps,
/// whatever the block size.
class WordRun {
 public:
  /// `offset` < `words`, `words` >= 1.
  WordRun(std::uint64_t offset, std::uint64_t repeat,
          std::uint64_t words) noexcept
      : offset_(offset),
        repeat_(repeat),
        words_(words),
        laps_(repeat < words ? 0 : repeat / words),
        partial_(repeat < words ? repeat : repeat % words) {}

  /// Splits visits [from, from + count) into contiguous word ranges and
  /// calls fn(first_word, length, first_visit) for each, in visit order.
  template <class Fn>
  void for_each_range(std::uint64_t from, std::uint64_t count,
                      Fn&& fn) const {
    std::uint64_t word = offset_ + from;
    if (word >= words_) word %= words_;
    while (count > 0) {
      const std::uint64_t len = std::min(count, words_ - word);
      fn(word, len, from);
      from += len;
      count -= len;
      word = 0;
    }
  }

  /// Splits the whole run into pieces that stay within one cache line of
  /// `line_bytes` (a power of two >= 8), word w of the block living at
  /// byte address base + 8 * w: calls fn(addr, words) for each, in visit
  /// order, with `addr` the piece's first word.
  template <class Fn>
  void for_each_line(std::uint64_t base, std::uint64_t line_bytes,
                     Fn&& fn) const {
    for_each_range(0, repeat_, [&](std::uint64_t first, std::uint64_t len,
                                   std::uint64_t) {
      std::uint64_t addr = base + first * 8;
      const std::uint64_t end = addr + len * 8;
      while (addr < end) {
        const std::uint64_t next = std::min(end, (addr | (line_bytes - 1)) + 1);
        fn(addr, (next - addr) / 8);
        addr = next;
      }
    });
  }

  /// Visits each of the run's min(repeat, words) distinct words once,
  /// as contiguous ranges in first-visit order: calls
  /// fn(first_word, length, visits, last_visit), where word
  /// first_word + i (i < length) is visited `visits` times, the last
  /// time at visit last_visit + i. The repeat % words words from
  /// `offset` on take repeat / words + 1 visits, the rest one fewer.
  template <class Fn>
  void for_each_distinct(Fn&& fn) const {
    for_each_range(0, partial_, [&](std::uint64_t first, std::uint64_t len,
                                    std::uint64_t j) {
      fn(first, len, laps_ + 1, j + words_ * laps_);
    });
    if (laps_ == 0) return;
    for_each_range(partial_, words_ - partial_,
                   [&](std::uint64_t first, std::uint64_t len,
                       std::uint64_t j) {
                     fn(first, len, laps_, j + words_ * (laps_ - 1));
                   });
  }

 private:
  std::uint64_t offset_;
  std::uint64_t repeat_;
  std::uint64_t words_;
  std::uint64_t laps_;     ///< Full passes over the block.
  std::uint64_t partial_;  ///< Visits past the last full pass.
};

/// A complete workload: the program plus its deterministic trace.
struct Workload {
  Program program;
  std::vector<TraceEvent> trace;

  /// Total word accesses across the trace.
  std::uint64_t total_accesses() const noexcept;
  /// Total nominal cycles (profiler timebase).
  std::uint64_t nominal_cycles() const noexcept;
};

/// Validates a trace against its program: block ids in range, offsets
/// within blocks, fetches only from code blocks, reads/writes only to
/// data blocks, and balanced call markers. Throws ftspm::Error on the
/// first violation.
void validate_trace(const Program& program,
                    const std::vector<TraceEvent>& trace);

/// The checks validate_trace() makes, one event at a time, for trace
/// consumers that validate in the same walk that consumes the trace.
/// check() tests event `i` and finish() the trace's end, in
/// validate_trace()'s order and with its messages, so a walk that calls
/// them throws exactly what validate_trace() would, at the same event.
class TraceChecker {
 public:
  explicit TraceChecker(const Program& program) noexcept
      : blocks_(program.blocks().data()),
        block_count_(program.block_count()) {}

  // Inlined into each caller's loop: out of line, the call and the
  // checker's state round-trip through memory on every event.
  [[gnu::always_inline]] void check(const TraceEvent& e, std::size_t i) {
    const auto where = [i] {
      return " (event " + with_commas(static_cast<std::uint64_t>(i)) + ")";
    };
    FTSPM_CHECK(e.block < block_count_,
                "trace references unknown block" + where());
    const Block& b = blocks_[e.block];
    switch (e.type) {
      case AccessType::Fetch:
        FTSPM_CHECK(b.is_code(), "fetch from non-code block " + b.name + where());
        FTSPM_CHECK(e.offset < b.size_words(),
                    "fetch offset outside block " + b.name + where());
        FTSPM_CHECK(e.repeat >= 1, "empty fetch run" + where());
        break;
      case AccessType::Read:
      case AccessType::Write:
        FTSPM_CHECK(b.is_data(),
                    "data access to code block " + b.name + where());
        FTSPM_CHECK(e.offset < b.size_words(),
                    "data offset outside block " + b.name + where());
        FTSPM_CHECK(e.repeat >= 1, "empty access run" + where());
        break;
      case AccessType::CallEnter:
        FTSPM_CHECK(b.is_code(), "call into non-code block" + where());
        FTSPM_CHECK(e.repeat == 1, "markers must have repeat == 1" + where());
        ++call_depth_;
        break;
      case AccessType::CallExit:
        FTSPM_CHECK(b.is_code(), "return from non-code block" + where());
        FTSPM_CHECK(e.repeat == 1, "markers must have repeat == 1" + where());
        --call_depth_;
        FTSPM_CHECK(call_depth_ >= 0, "unbalanced call markers" + where());
        break;
    }
  }

  void finish() const {
    FTSPM_CHECK(call_depth_ == 0, "trace ends with open calls");
  }

 private:
  const Block* blocks_;
  std::size_t block_count_;
  std::int64_t call_depth_ = 0;
};

}  // namespace ftspm
