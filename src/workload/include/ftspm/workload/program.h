// Program model: the unit the SPM mapping algorithm reasons about.
//
// Following the paper (and the SPM-management literature it builds on,
// Steinke et al. DATE'02), a program is partitioned into *blocks*:
// instruction blocks (functions or instruction sequences) and data
// blocks (arrays, and the stack treated as one block). FTSPM's MDA
// decides, per block, whether it lives in the SPM and in which region.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ftspm/util/error.h"

namespace ftspm {

/// Index of a block within its Program. Stable across the whole
/// pipeline (trace -> profile -> mapping -> simulation).
using BlockId = std::uint32_t;

/// Kind of program block.
enum class BlockKind : std::uint8_t {
  Code,   ///< Instruction block (function / instruction sequence).
  Data,   ///< Data block (array, global buffer).
  Stack,  ///< The call stack, managed as a single data block.
};

const char* to_string(BlockKind kind) noexcept;

/// One program block.
struct Block {
  std::string name;
  BlockKind kind = BlockKind::Data;
  std::uint32_t size_bytes = 0;

  std::uint32_t size_words() const noexcept { return size_bytes / 8; }
  bool is_code() const noexcept { return kind == BlockKind::Code; }
  bool is_data() const noexcept { return kind != BlockKind::Code; }
};

/// A program: a named set of blocks. Blocks are word-aligned;
/// `Program` validates sizes on construction and assigns each block a
/// base address in a flat off-chip address space (used by the cache
/// model when a block is not SPM-resident).
class Program {
 public:
  Program(std::string name, std::vector<Block> blocks);

  const std::string& name() const noexcept { return name_; }
  const std::vector<Block>& blocks() const noexcept { return blocks_; }
  const Block& block(BlockId id) const {
    FTSPM_REQUIRE(id < blocks_.size(), "block id out of range");
    return blocks_[id];
  }
  std::size_t block_count() const noexcept { return blocks_.size(); }

  /// Off-chip base address of a block (bytes).
  std::uint64_t base_address(BlockId id) const {
    FTSPM_REQUIRE(id < blocks_.size(), "block id out of range");
    return base_addresses_[id];
  }

  /// Finds a block by name.
  std::optional<BlockId> find(std::string_view name) const noexcept;

  /// Sum of code / data block sizes.
  std::uint64_t total_code_bytes() const noexcept { return code_bytes_; }
  std::uint64_t total_data_bytes() const noexcept { return data_bytes_; }

 private:
  std::string name_;
  std::vector<Block> blocks_;
  std::vector<std::uint64_t> base_addresses_;
  std::uint64_t code_bytes_ = 0;
  std::uint64_t data_bytes_ = 0;
};

}  // namespace ftspm
