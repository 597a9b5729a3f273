#include "ftspm/workload/trace_builder.h"

#include <algorithm>
#include <utility>

namespace ftspm {

TraceBuilder::TraceBuilder(const Program& program) : program_(program) {
  for (std::size_t i = 0; i < program_.block_count(); ++i) {
    if (program_.block(static_cast<BlockId>(i)).kind == BlockKind::Stack) {
      stack_block_ = static_cast<BlockId>(i);
      break;
    }
  }
}

void TraceBuilder::emit_split(BlockId block, AccessType type,
                              std::uint16_t gap, std::uint32_t offset,
                              std::uint64_t count, std::uint32_t words) {
  while (count > 0) {
    const std::uint64_t n = std::min(count, kMaxRepeat);
    trace_.push_back(
        TraceEvent{block, type, gap, offset, static_cast<std::uint32_t>(n)});
    offset = static_cast<std::uint32_t>((offset + n) % words);
    count -= n;
  }
}

std::uint32_t TraceBuilder::stack_top_word() const noexcept {
  if (frames_.empty() || stack_bytes_ == 0) return 0;
  const std::uint32_t frame = frames_.back().frame_bytes;
  const std::uint32_t base = stack_bytes_ >= frame ? stack_bytes_ - frame : 0;
  return base / 8;
}

void TraceBuilder::call(BlockId fn, std::uint32_t frame_bytes,
                        std::uint32_t spill_words) {
  FTSPM_REQUIRE(program_.block(fn).is_code(), "call target must be code");
  FTSPM_REQUIRE(frame_bytes % 4 == 0, "frame bytes must be 4-aligned");
  trace_.push_back(TraceEvent{fn, AccessType::CallEnter, 0, frame_bytes, 1});
  frames_.push_back(Frame{fn, frame_bytes});
  stack_bytes_ += frame_bytes;
  max_stack_bytes_ = std::max(max_stack_bytes_, stack_bytes_);
  if (spill_words > 0) stack_write(spill_words);
}

void TraceBuilder::ret(std::uint32_t reload_words) {
  FTSPM_REQUIRE(!frames_.empty(), "ret without matching call");
  if (reload_words > 0) stack_read(reload_words);
  const Frame frame = frames_.back();
  frames_.pop_back();
  stack_bytes_ -= std::min(stack_bytes_, frame.frame_bytes);
  trace_.push_back(TraceEvent{frame.fn, AccessType::CallExit, 0, 0, 1});
}

void TraceBuilder::stack_read(std::uint64_t count, std::uint16_t gap) {
  FTSPM_REQUIRE(stack_block_.has_value(), "program has no stack block");
  read(*stack_block_, count,
       stack_top_word() % program_.block(*stack_block_).size_words(), gap);
}

void TraceBuilder::stack_write(std::uint64_t count, std::uint16_t gap) {
  FTSPM_REQUIRE(stack_block_.has_value(), "program has no stack block");
  write(*stack_block_, count,
        stack_top_word() % program_.block(*stack_block_).size_words(), gap);
}

Trace TraceBuilder::take() {
  FTSPM_REQUIRE(frames_.empty(), "take() with unreturned calls");
  return std::exchange(trace_, Trace{});
}

}  // namespace ftspm
