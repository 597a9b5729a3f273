// Block-level access traces.
//
// The whole reproduction is trace-driven: workload generators emit a
// deterministic stream of block accesses which the profiler, the MDA
// mapping pipeline, the cycle-level simulator, and the fault campaign
// all consume. Events are *aggregated*: one TraceEvent can represent a
// run of `repeat` consecutive word accesses (a streaming loop), which
// keeps multi-million-access workloads compact while preserving exact
// per-word counts. A Trace packs each event into one 4-byte slot (see
// TraceSlot) and holds the slots in fixed 64 KiB chunks, append-only.
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

/// How a Trace stores one event: a single 4-byte slot. Bits, low to
/// high: type 3, gap 1, block 4, offset 12, repeat 12. An event with a
/// gap of 2 or more, a block of 16 or more, an offset or repeat of 4096
/// or more, or a type value of 7 or more is stored instead as an escape
/// slot: type field 7, and the upper 29 bits index the trace's side
/// vector of full TraceEvents. So every event round-trips exactly, and
/// an escape costs its 4-byte slot plus one 16-byte TraceEvent. The
/// widths follow what the workloads emit: no suite benchmark needs an
/// escape, the case study 0.07% of its events (docs/performance.md,
/// "One slot per event").
struct TraceSlot {
  using Word = std::uint32_t;
  static constexpr Word kEscape = 7;  ///< Type field of an escape.
  /// Escape indices are below 2^kIndexBits.
  static constexpr unsigned kIndexBits = 29;

  /// Whether `e` packs into a slot of its own, without an escape.
  static constexpr bool fits(const TraceEvent& e) noexcept {
    return static_cast<Word>(e.type) < kEscape && e.gap < 2 &&
           e.block < 16 && e.offset < 4096 && e.repeat < 4096;
  }
  /// The slot of an event that fits().
  static constexpr Word pack(const TraceEvent& e) noexcept {
    return static_cast<Word>(e.type) | static_cast<Word>(e.gap) << 3 |
           static_cast<Word>(e.block) << 4 |
           static_cast<Word>(e.offset) << 8 |
           static_cast<Word>(e.repeat) << 20;
  }
  /// The slot of the escaped event at `index` of the side vector.
  /// Throws Error when `index` does not fit the slot's upper bits.
  static constexpr Word escape(std::size_t index) {
    if (index >= std::size_t{1} << kIndexBits)
      throw Error("a trace holds at most 2^29 escaped events");
    return static_cast<Word>(index) << 3 | kEscape;
  }
  /// The event in `slot`; `escapes` is its trace's side vector.
  static TraceEvent decode(Word slot,
                           const std::vector<TraceEvent>& escapes) noexcept {
    if ((slot & 7) == kEscape) [[unlikely]] return escapes[slot >> 3];
    return TraceEvent{static_cast<BlockId>(slot >> 4 & 0xf),
                      static_cast<AccessType>(slot & 7),
                      static_cast<std::uint16_t>(slot >> 3 & 1),
                      slot >> 8 & 0xfff, slot >> 20};
  }
};

/// One chunk of a Trace: its slots, decoded event by event as they are
/// read. Valid until its trace is destroyed or moved from; appends
/// leave it valid.
class TraceChunk {
 public:
  /// Forward iterator yielding each event by value.
  class iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = TraceEvent;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    iterator(const TraceSlot::Word* slot,
             const std::vector<TraceEvent>* escapes) noexcept
        : slot_(slot), escapes_(escapes) {}

    TraceEvent operator*() const noexcept {
      return TraceSlot::decode(*slot_, *escapes_);
    }
    iterator& operator++() noexcept {
      ++slot_;
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator before = *this;
      ++slot_;
      return before;
    }
    friend bool operator==(const iterator& a, const iterator& b) noexcept {
      return a.slot_ == b.slot_;
    }

   private:
    const TraceSlot::Word* slot_ = nullptr;
    const std::vector<TraceEvent>* escapes_ = nullptr;
  };

  TraceChunk(std::span<const TraceSlot::Word> slots,
             const std::vector<TraceEvent>& escapes) noexcept
      : slots_(slots), escapes_(&escapes) {}

  std::size_t size() const noexcept { return slots_.size(); }
  iterator begin() const noexcept { return {slots_.data(), escapes_}; }
  iterator end() const noexcept {
    return {slots_.data() + slots_.size(), escapes_};
  }
  /// The chunk's raw slots, in TraceSlot's format.
  std::span<const TraceSlot::Word> slots() const noexcept { return slots_; }

 private:
  std::span<const TraceSlot::Word> slots_;
  const std::vector<TraceEvent>* escapes_;
};

/// An append-only event sequence, stored one TraceSlot per event in
/// fixed chunks of kChunkEvents slots: chunk k holds events
/// [k * kChunkEvents, (k + 1) * kChunkEvents), and a trace of n events
/// holds ceil(n / kChunkEvents) chunks. Appending never moves a slot,
/// so a builder hands its trace over without copying it, and the
/// running totals stay exact because no event changes once appended.
/// Events are read by value: hot loops walk chunk(k), and operator[]
/// and the iterators serve everything else.
class Trace {
 public:
  /// Slots per chunk: 64 KiB of 4-byte slots, below glibc's default
  /// mmap threshold, so the chunks of one trace are recycled from the
  /// heap by the next instead of being mapped (and faulted in) afresh.
  static constexpr std::size_t kChunkEvents = 16384;

  /// Forward iterator over a Trace's events by index, yielding each by
  /// value.
  class const_iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = TraceEvent;
    using difference_type = std::ptrdiff_t;

    const_iterator() = default;
    const_iterator(const Trace* trace, std::size_t i) noexcept
        : trace_(trace), i_(i) {}

    TraceEvent operator*() const noexcept { return (*trace_)[i_]; }
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
        escapes_(std::exchange(other.escapes_, {})),
        size_(std::exchange(other.size_, 0)),
        accesses_(std::exchange(other.accesses_, 0)),
        nominal_cycles_(std::exchange(other.nominal_cycles_, 0)) {}
  Trace& operator=(Trace&& other) noexcept {
    chunks_ = std::exchange(other.chunks_, {});
    escapes_ = std::exchange(other.escapes_, {});
    size_ = std::exchange(other.size_, 0);
    accesses_ = std::exchange(other.accesses_, 0);
    nominal_cycles_ = std::exchange(other.nominal_cycles_, 0);
    return *this;
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  std::size_t chunk_count() const noexcept { return chunks_.size(); }
  /// Events [k * kChunkEvents, min(size(), (k + 1) * kChunkEvents)).
  TraceChunk chunk(std::size_t k) const noexcept {
    return {{chunks_[k].get(),
             std::min(kChunkEvents, size_ - k * kChunkEvents)},
            escapes_};
  }

  TraceEvent operator[](std::size_t i) const noexcept {
    return TraceSlot::decode(chunks_[i / kChunkEvents][i % kChunkEvents],
                             escapes_);
  }
  TraceEvent front() const noexcept { return (*this)[0]; }
  TraceEvent back() const noexcept { return (*this)[size_ - 1]; }
  const_iterator begin() const noexcept { return {this, 0}; }
  const_iterator end() const noexcept { return {this, size_}; }

  void push_back(const TraceEvent& event) {
    // An escape index that does not fit throws before the trace changes.
    const bool fits = TraceSlot::fits(event);
    const TraceSlot::Word word = fits ? TraceSlot::pack(event)
                                      : TraceSlot::escape(escapes_.size());
    const std::size_t slot = size_ % kChunkEvents;
    if (slot == 0) [[unlikely]] add_chunk();
    chunks_.back()[slot] = word;
    if (!fits) [[unlikely]] escapes_.push_back(event);
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
  /// Events stored as escapes, in the side vector.
  std::size_t escape_count() const noexcept { return escapes_.size(); }
  /// Heap bytes the events occupy: every chunk's slots, whole, plus the
  /// side vector's capacity.
  std::size_t stored_bytes() const noexcept {
    return chunks_.size() * kChunkEvents * sizeof(TraceSlot::Word) +
           escapes_.capacity() * sizeof(TraceEvent);
  }

  friend bool operator==(const Trace& a, const Trace& b) noexcept {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  void add_chunk();

  std::vector<std::unique_ptr<TraceSlot::Word[]>> chunks_;
  std::vector<TraceEvent> escapes_;  ///< Events too wide for a slot.
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
