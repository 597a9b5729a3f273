// Hsiao SEC-DED (72,64) codec.
//
// Eight check bits per 64-bit word. The parity-check matrix uses
// distinct odd-weight columns (the 56 weight-3 plus 8 of the weight-5
// 8-bit vectors for data bits; identity columns for check bits), the
// classic Hsiao construction. Properties exercised by tests and by the
// Monte-Carlo fault campaign:
//
//  * any single-bit error (data or check) is corrected;
//  * any double-bit error yields an even-weight non-zero syndrome and is
//    detected-uncorrectable;
//  * triple and higher errors are detected, miscorrected, or (rarely)
//    aliased to a clean syndrome — genuine silent corruption, exactly
//    the behaviour the paper's Eq. 7 charges to SDC.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "ftspm/ecc/codec.h"

namespace ftspm {

/// A stored SEC-DED word. Physical bit indices: 0..63 = data bits (LSB
/// first), 64..71 = check bits c0..c7.
struct SecDedWord {
  std::uint64_t data = 0;
  std::uint8_t check = 0;
};

class SecDedCodec {
 public:
  static constexpr std::uint32_t kDataBits = 64;
  static constexpr std::uint32_t kCheckBits = 8;
  static constexpr std::uint32_t kCodewordBits = 72;

  static SecDedWord encode(std::uint64_t data) noexcept;

  /// Full syndrome decode with single-bit correction.
  static DecodeResult decode(const SecDedWord& word) noexcept;

  /// Classifies an error pattern without touching stored data: folds the
  /// flipped bits' H-matrix columns into the syndrome and reads the
  /// decode outcome from a per-syndrome LUT. `data_mask` holds the
  /// flipped data bits (0..63), `check_mask` the flipped check bits
  /// c0..c7. Exactly equivalent to encode(x) -> flip -> decode for every
  /// x (linearity); this is the Monte-Carlo campaign's fast path, with
  /// encode/flip/decode kept as the oracle it is tested against.
  static PatternDecode classify_pattern(std::uint64_t data_mask,
                                        std::uint8_t check_mask) noexcept;

  /// What the Hsiao decode rule does for one 8-bit syndrome value: the
  /// decode status plus the data-bit correction mask it would apply.
  /// Row `s` of syndrome_table() fully determines the outcome of any
  /// error pattern folding to syndrome `s` (combined with the pattern's
  /// own data mask for the residual).
  struct SyndromeDecode {
    DecodeStatus status = DecodeStatus::Clean;
    std::uint64_t correction_mask = 0;
  };

  /// The 256-entry syndrome decode LUT classify_pattern reads, exposed
  /// so batch classifiers can map whole arrays of folded syndromes to
  /// outcomes without a per-pattern call.
  static const std::array<SyndromeDecode, 256>& syndrome_table() noexcept;

  /// Folds `count` error patterns into their 8-bit syndromes:
  /// syndromes[i] = syndrome of (data_masks[i], check_masks[i]). A
  /// scalar byte-table fold built from the H-matrix columns — the
  /// independent reference the run-syndrome table and the recovery
  /// engine's syndrome shadow are tested against; no campaign engine
  /// calls it. Safe to call concurrently.
  static void fold_syndromes(const std::uint64_t* data_masks,
                             const std::uint8_t* check_masks,
                             std::size_t count,
                             std::uint8_t* syndromes) noexcept;

  /// Same as fold_syndromes. Only perfbench's `ecc` rung names it; it
  /// goes away with that rung.
  static void fold_syndromes_scalar(const std::uint64_t* data_masks,
                                    const std::uint8_t* check_masks,
                                    std::size_t count,
                                    std::uint8_t* syndromes) noexcept {
    fold_syndromes(data_masks, check_masks, count, syndromes);
  }

  /// Always "scalar". Only perfbench's `ecc` rung and its manifest name
  /// it; it goes away with that rung.
  static const char* fold_backend() noexcept { return "scalar"; }

  /// Recomputes the 8 check bits for `data`.
  static std::uint8_t compute_check(std::uint64_t data) noexcept;

  /// Flips physical bit `bit` (0..71) in place.
  static void flip_bit(SecDedWord& word, std::uint32_t bit);

  /// The H-matrix column (8-bit, odd weight) guarding data bit `i`.
  /// Exposed for tests that verify the Hsiao construction.
  static std::uint8_t column(std::uint32_t data_bit) noexcept;

 private:
  struct Tables;
  static const Tables& tables() noexcept;
};

}  // namespace ftspm
