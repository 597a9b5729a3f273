// Structured trace construction.
//
// Workload generators describe programs in terms of calls, loops, and
// streaming array passes; TraceBuilder turns that structure into a
// validated TraceEvent stream, tracking call depth and stack usage so
// the generated trace always has balanced markers and in-bounds
// offsets. Stack frames are materialised as reads/writes to the
// program's Stack block at the current depth, which is what makes the
// stack show up in the profile (and later in MDA's endurance filter)
// exactly like the paper's Table I "Stack" row.
//
// Every call checks its arguments against the program and throws
// InvalidArgument on the spot, so the builder enforces each invariant
// validate_trace() checks and take() does not validate again.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "ftspm/util/error.h"
#include "ftspm/workload/trace.h"

namespace ftspm {

class TraceBuilder {
 public:
  /// `program` must outlive the builder.
  explicit TraceBuilder(const Program& program);

  // --- code ---------------------------------------------------------

  /// Emits a CallEnter marker for `fn` requesting `frame_bytes` of
  /// stack, then (when the program has a Stack block and
  /// `spill_words > 0`) writes `spill_words` words of the frame to the
  /// stack. Depth bookkeeping feeds max_stack_bytes().
  void call(BlockId fn, std::uint32_t frame_bytes,
            std::uint32_t spill_words = 0);

  /// Emits the matching CallExit; optionally reads back `reload_words`
  /// spilled words first.
  void ret(std::uint32_t reload_words = 0);

  /// Emits `count` instruction fetches from the innermost active code
  /// block, starting at word 0 and wrapping; `gap` compute cycles
  /// precede each fetch.
  void fetch(std::uint64_t count, std::uint16_t gap = 0) {
    FTSPM_REQUIRE(!frames_.empty(), "fetch needs an active call frame");
    fetch_from(frames_.back().fn, count, gap);
  }

  /// Fetches from an explicit code block (for sequences outside calls).
  void fetch_from(BlockId code_block, std::uint64_t count,
                  std::uint16_t gap = 0) {
    const Block& b = program_.block(code_block);
    FTSPM_REQUIRE(b.is_code(), "fetch target must be code");
    emit(code_block, AccessType::Fetch, gap, 0, count, b.size_words());
  }

  // --- data ---------------------------------------------------------

  /// A run of `count` sequential word reads from `block` starting at
  /// word `offset` (wrapping modulo the block size).
  void read(BlockId block, std::uint64_t count, std::uint32_t offset = 0,
            std::uint16_t gap = 0) {
    emit(block, AccessType::Read, gap, offset, count,
         data_words(block, offset));
  }

  /// Sequential word writes, same conventions as read().
  void write(BlockId block, std::uint64_t count, std::uint32_t offset = 0,
             std::uint16_t gap = 0) {
    emit(block, AccessType::Write, gap, offset, count,
         data_words(block, offset));
  }

  /// Single-word accesses at an arbitrary offset (random-access
  /// patterns).
  void read_at(BlockId block, std::uint32_t offset, std::uint16_t gap = 0) {
    read(block, 1, offset, gap);
  }
  void write_at(BlockId block, std::uint32_t offset, std::uint16_t gap = 0) {
    write(block, 1, offset, gap);
  }

  /// Reads/writes near the current stack top (requires a Stack block).
  void stack_read(std::uint64_t count, std::uint16_t gap = 0);
  void stack_write(std::uint64_t count, std::uint16_t gap = 0);

  // --- results ------------------------------------------------------

  /// Deepest stack usage seen so far, in bytes.
  std::uint32_t max_stack_bytes() const noexcept { return max_stack_bytes_; }

  /// Current call depth (0 at top level).
  std::size_t call_depth() const noexcept { return frames_.size(); }

  /// Finishes the trace: requires all calls returned; hands over the
  /// events in the chunks they were appended to, leaving the builder
  /// empty.
  Trace take();

 private:
  struct Frame {
    BlockId fn;
    std::uint32_t frame_bytes;
  };

  static constexpr std::uint64_t kMaxRepeat =
      std::numeric_limits<std::uint32_t>::max();

  /// Checks a data-access target and returns its size in words.
  std::uint32_t data_words(BlockId block, std::uint32_t offset) const {
    const Block& b = program_.block(block);
    FTSPM_REQUIRE(b.is_data(), "data access target must be a data block");
    FTSPM_REQUIRE(offset < b.size_words(), "offset outside block " + b.name);
    return b.size_words();
  }

  /// `count` word accesses from word `offset` of a block of `words`
  /// words; nothing for count 0.
  void emit(BlockId block, AccessType type, std::uint16_t gap,
            std::uint32_t offset, std::uint64_t count, std::uint32_t words) {
    if (count == 0) return;
    if (count > kMaxRepeat) [[unlikely]] {
      emit_split(block, type, gap, offset, count, words);
      return;
    }
    trace_.push_back(TraceEvent{block, type, gap, offset,
                                static_cast<std::uint32_t>(count)});
  }

  /// emit() for counts above a u32 repeat: consecutive events, each
  /// starting where the previous one stopped.
  void emit_split(BlockId block, AccessType type, std::uint16_t gap,
                  std::uint32_t offset, std::uint64_t count,
                  std::uint32_t words);

  std::uint32_t stack_top_word() const noexcept;

  const Program& program_;
  Trace trace_;
  std::vector<Frame> frames_;
  std::uint32_t stack_bytes_ = 0;
  std::uint32_t max_stack_bytes_ = 0;
  std::optional<BlockId> stack_block_;
};

}  // namespace ftspm
