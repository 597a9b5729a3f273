// Physical geometry of a protected memory region.
//
// The fault injector needs to aim particle strikes at *physical* bits —
// data bits and check bits alike — and the AVF model needs each region's
// share of the total silicon area. RegionGeometry answers both: it maps
// a region's payload capacity to its physical bit count and translates a
// physical bit index into (word index, bit-within-codeword).
#pragma once

#include <cstdint>

#include "ftspm/mem/technology.h"

namespace ftspm {

/// Location of one physical bit inside a region.
struct PhysicalBit {
  std::uint64_t word_index = 0;  ///< Which protected word.
  std::uint32_t bit_in_codeword = 0;  ///< 0..codeword_bits-1 (data+check).
};

/// Geometry of a region storing `data_bytes` of payload in 64-bit words,
/// each extended by `check_bits_per_word` code bits.
class RegionGeometry {
 public:
  static constexpr std::uint32_t kDataBitsPerWord = 64;
  /// Widest check-bit overhead a geometry accepts.
  static constexpr std::uint32_t kMaxCheckBitsPerWord = 16;

  RegionGeometry(std::uint64_t data_bytes, std::uint32_t check_bits_per_word);

  /// Geometry implied by a TechnologyParams' protection kind.
  static RegionGeometry for_params(std::uint64_t data_bytes,
                                   const TechnologyParams& params);

  std::uint64_t data_bytes() const noexcept { return data_bytes_; }
  std::uint64_t words() const noexcept { return words_; }
  std::uint32_t check_bits_per_word() const noexcept { return check_bits_; }
  std::uint32_t codeword_bits() const noexcept {
    return kDataBitsPerWord + check_bits_;
  }

  /// Total physical storage bits (data + check).
  std::uint64_t physical_bits() const noexcept {
    return words_ * codeword_bits();
  }

  /// Maps a flat physical bit index in [0, physical_bits()) to its word
  /// and bit position. Codewords are laid out contiguously; within a
  /// codeword, bits 0..63 are data and 64.. are check bits. (The fault
  /// model's adjacency is defined over this layout.)
  PhysicalBit locate(std::uint64_t physical_bit_index) const;

 private:
  std::uint64_t data_bytes_;
  std::uint64_t words_;
  std::uint32_t check_bits_;
};

}  // namespace ftspm
