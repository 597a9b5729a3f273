// The profiled block-reference sequence, one byte per reference.
//
// Profiling records one block id per reference run, and a full-size
// trace runs to hundreds of thousands of them (dijkstra: 312,003), so
// the sequence is the largest buffer a pipeline pass holds beside the
// trace. Every workload's block ids are small, so each reference is
// stored as a one-byte code: codes 0-254 are the block id itself, and
// code 255 is an escape whose id is the next entry of a side vector of
// full BlockIds, the idiom TraceSlot uses for events. Readers walk the
// sequence forward or ask its size; there is no random access.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <vector>

#include "ftspm/workload/program.h"

namespace ftspm {

class ReferenceSequence {
 public:
  using Code = std::uint8_t;
  /// The code of a reference whose id is the next escaped one; ids
  /// below it are stored as their own code.
  static constexpr Code kEscape = 255;

  /// Forward iterator yielding each block id by value.
  class const_iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = BlockId;
    using difference_type = std::ptrdiff_t;

    const_iterator() = default;
    const_iterator(const Code* code, const BlockId* escape) noexcept
        : code_(code), escape_(escape) {}

    BlockId operator*() const noexcept {
      const Code code = *code_;
      if (code == kEscape) [[unlikely]] return *escape_;
      return code;
    }
    const_iterator& operator++() noexcept {
      if (*code_ == kEscape) [[unlikely]] ++escape_;
      ++code_;
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const const_iterator& a,
                           const const_iterator& b) noexcept {
      return a.code_ == b.code_;
    }

   private:
    const Code* code_ = nullptr;
    const BlockId* escape_ = nullptr;  ///< The next escaped id.
  };

  ReferenceSequence() = default;
  ReferenceSequence(std::initializer_list<BlockId> ids) {
    for (const BlockId id : ids) push_back(id);
  }
  explicit ReferenceSequence(const std::vector<BlockId>& ids) {
    for (const BlockId id : ids) push_back(id);
  }

  void push_back(BlockId id) {
    if (id < kEscape) [[likely]] {
      codes_.push_back(static_cast<Code>(id));
      return;
    }
    escapes_.push_back(id);
    codes_.push_back(kEscape);
  }
  /// Reserves room for `n` references' codes (escapes grow on demand).
  void reserve(std::size_t n) { codes_.reserve(n); }

  std::size_t size() const noexcept { return codes_.size(); }
  bool empty() const noexcept { return codes_.empty(); }
  const_iterator begin() const noexcept {
    return {codes_.data(), escapes_.data()};
  }
  const_iterator end() const noexcept {
    return {codes_.data() + codes_.size(), nullptr};
  }

  /// Bytes the references occupy: one per reference, plus a BlockId per
  /// escaped one.
  std::size_t stored_bytes() const noexcept {
    return codes_.size() + escapes_.size() * sizeof(BlockId);
  }

  /// Equal sequences hold the same ids in the same order; the encoding
  /// is canonical, so the stored vectors compare equal too.
  friend bool operator==(const ReferenceSequence&,
                         const ReferenceSequence&) = default;

 private:
  std::vector<Code> codes_;
  std::vector<BlockId> escapes_;
};

}  // namespace ftspm
