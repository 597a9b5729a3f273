#include "ftspm/workload/program.h"

#include "ftspm/util/error.h"

namespace ftspm {

const char* to_string(BlockKind kind) noexcept {
  switch (kind) {
    case BlockKind::Code: return "code";
    case BlockKind::Data: return "data";
    case BlockKind::Stack: return "stack";
  }
  return "?";
}

Program::Program(std::string name, std::vector<Block> blocks)
    : name_(std::move(name)), blocks_(std::move(blocks)) {
  FTSPM_REQUIRE(!blocks_.empty(), "program must have at least one block");
  base_addresses_.reserve(blocks_.size());
  // Lay blocks out back-to-back in off-chip memory, code first —
  // mirrors a linker's .text / .data / stack placement.
  std::uint64_t addr = 0;
  std::size_t stack_blocks = 0;
  for (const auto& b : blocks_) {
    FTSPM_REQUIRE(!b.name.empty(), "block needs a name");
    FTSPM_REQUIRE(b.size_bytes > 0 && b.size_bytes % 8 == 0,
                  "block size must be a positive multiple of 8 bytes: " +
                      b.name);
    base_addresses_.push_back(addr);
    addr += b.size_bytes;
    if (b.kind == BlockKind::Stack) ++stack_blocks;
    if (b.is_code())
      code_bytes_ += b.size_bytes;
    else
      data_bytes_ += b.size_bytes;
  }
  FTSPM_REQUIRE(stack_blocks <= 1, "at most one stack block per program");
}

std::optional<BlockId> Program::find(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < blocks_.size(); ++i)
    if (blocks_[i].name == name) return static_cast<BlockId>(i);
  return std::nullopt;
}

}  // namespace ftspm
