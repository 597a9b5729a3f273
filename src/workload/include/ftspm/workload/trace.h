// Block-level access traces.
//
// The whole reproduction is trace-driven: workload generators emit a
// deterministic stream of block accesses which the profiler, the MDA
// mapping pipeline, the cycle-level simulator, and the fault campaign
// all consume. Events are *aggregated*: one TraceEvent can represent a
// run of `repeat` consecutive word accesses (a streaming loop), which
// keeps multi-million-access workloads compact while preserving exact
// per-word counts. A Trace holds the events in fixed 64 KiB chunks,
// append-only.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <span>
#include <utility>
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

  bool operator==(const TraceEvent&) const = default;
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

/// An append-only event sequence, stored in fixed chunks of
/// kChunkEvents events: chunk k holds events [k * kChunkEvents,
/// (k + 1) * kChunkEvents), and a trace of n events holds
/// ceil(n / kChunkEvents) chunks. Appending never moves an event, so a
/// builder hands its trace over without copying it, and the running
/// totals stay exact because no event changes once appended. Hot loops
/// walk chunk(k) as contiguous spans; operator[] and the iterators are
/// for everything else.
class Trace {
 public:
  /// Events per chunk: 64 KiB of 16-byte events, below glibc's default
  /// mmap threshold, so the chunks of one trace are recycled from the
  /// heap by the next instead of being mapped (and faulted in) afresh.
  static constexpr std::size_t kChunkEvents = 4096;

  /// Forward iterator over a Trace's events by index.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = TraceEvent;
    using difference_type = std::ptrdiff_t;
    using pointer = const TraceEvent*;
    using reference = const TraceEvent&;

    const_iterator() = default;
    const_iterator(const Trace* trace, std::size_t i) noexcept
        : trace_(trace), i_(i) {}

    reference operator*() const noexcept { return (*trace_)[i_]; }
    pointer operator->() const noexcept { return &**this; }
    const_iterator& operator++() noexcept {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator before = *this;
      ++i_;
      return before;
    }
    friend bool operator==(const const_iterator& a,
                           const const_iterator& b) noexcept {
      return a.i_ == b.i_;
    }

   private:
    const Trace* trace_ = nullptr;
    std::size_t i_ = 0;
  };

  Trace() = default;
  Trace(std::initializer_list<TraceEvent> events) {
    append(events.begin(), events.end());
  }
  template <std::input_iterator It>
  Trace(It first, It last) {
    append(first, last);
  }
  Trace(const Trace& other) { append(other.begin(), other.end()); }
  Trace& operator=(const Trace& other) {
    if (this != &other) *this = Trace(other);
    return *this;
  }
  Trace(Trace&& other) noexcept
      : chunks_(std::exchange(other.chunks_, {})),
        size_(std::exchange(other.size_, 0)),
        accesses_(std::exchange(other.accesses_, 0)),
        nominal_cycles_(std::exchange(other.nominal_cycles_, 0)) {}
  Trace& operator=(Trace&& other) noexcept {
    chunks_ = std::exchange(other.chunks_, {});
    size_ = std::exchange(other.size_, 0);
    accesses_ = std::exchange(other.accesses_, 0);
    nominal_cycles_ = std::exchange(other.nominal_cycles_, 0);
    return *this;
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  std::size_t chunk_count() const noexcept { return chunks_.size(); }
  /// Events [k * kChunkEvents, min(size(), (k + 1) * kChunkEvents)).
  std::span<const TraceEvent> chunk(std::size_t k) const noexcept {
    return {chunks_[k].get(),
            std::min(kChunkEvents, size_ - k * kChunkEvents)};
  }

  const TraceEvent& operator[](std::size_t i) const noexcept {
    return chunks_[i / kChunkEvents][i % kChunkEvents];
  }
  const TraceEvent& front() const noexcept { return (*this)[0]; }
  const TraceEvent& back() const noexcept { return (*this)[size_ - 1]; }
  const_iterator begin() const noexcept { return {this, 0}; }
  const_iterator end() const noexcept { return {this, size_}; }

  void push_back(const TraceEvent& event) {
    const std::size_t slot = size_ % kChunkEvents;
    if (slot == 0) [[unlikely]] add_chunk();
    chunks_.back()[slot] = event;
    ++size_;
    accesses_ += event.accesses();
    nominal_cycles_ += event.nominal_cycles();
  }
  template <std::input_iterator It>
  void append(It first, It last) {
    for (; first != last; ++first) push_back(*first);
  }

  /// Word accesses across the trace, kept as events are appended.
  std::uint64_t total_accesses() const noexcept { return accesses_; }
  /// Nominal cycles (profiler timebase) across the trace, likewise.
  std::uint64_t nominal_cycles() const noexcept { return nominal_cycles_; }

  friend bool operator==(const Trace& a, const Trace& b) noexcept {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  void add_chunk();

  std::vector<std::unique_ptr<TraceEvent[]>> chunks_;
  std::size_t size_ = 0;
  std::uint64_t accesses_ = 0;
  std::uint64_t nominal_cycles_ = 0;
};

/// A complete workload: the program plus its deterministic trace.
struct Workload {
  Program program;
  Trace trace;

  /// Total word accesses across the trace.
  std::uint64_t total_accesses() const noexcept {
    return trace.total_accesses();
  }
  /// Total nominal cycles (profiler timebase).
  std::uint64_t nominal_cycles() const noexcept {
    return trace.nominal_cycles();
  }
};

/// Validates a trace against its program: block ids in range, offsets
/// within blocks, fetches only from code blocks, reads/writes only to
/// data blocks, and balanced call markers. Throws ftspm::Error on the
/// first violation.
void validate_trace(const Program& program, const Trace& trace);

/// The checks validate_trace() makes, one event at a time, for trace
/// consumers that validate in the same walk that consumes the trace.
/// check() tests the trace's next event, counting events itself, and
/// finish() the trace's end, in validate_trace()'s order and with its
/// messages, so a walk that calls them throws exactly what
/// validate_trace() would, at the same event.
class TraceChecker {
 public:
  explicit TraceChecker(const Program& program) noexcept
      : blocks_(program.blocks().data()),
        block_count_(program.block_count()) {}

  // Inlined into each caller's loop: out of line, the call and the
  // checker's state round-trip through memory on every event.
  [[gnu::always_inline]] void check(const TraceEvent& e) {
    const std::size_t i = next_++;
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
  std::size_t next_ = 0;  ///< Index of the next event check() sees.
  std::int64_t call_depth_ = 0;
};

}  // namespace ftspm
