// The Hsiao SEC-DED syndrome fold over arrays (SecDedCodec::
// fold_syndromes).
//
// Eight byte-table lookups per pattern: byte_fold[j][byte j of the
// data mask], XOR-reduced with the check-bit mask. The byte tables are
// built from the H-matrix columns (SecDedCodec::column), not through
// compute_check, so this fold is an independent reference for what the
// campaign engines derive from compute_check (the run-syndrome table,
// the recovery engine's syndrome shadow); tests/ecc and tests/fault pin
// both against it. No campaign engine calls it, and it sits in its own
// translation unit so ftspm_tool links none of it.
#include <cstddef>
#include <cstdint>

#include "ftspm/ecc/secded_codec.h"

namespace ftspm {

namespace {

/// byte_fold[j][b] is the XOR of the columns guarding data bits
/// 8j..8j+7 selected by the bits of b.
struct FoldTables {
  std::uint8_t byte_fold[8][256];

  FoldTables() {
    for (std::uint32_t j = 0; j < 8; ++j) {
      for (std::uint32_t b = 0; b < 256; ++b) {
        std::uint8_t fold = 0;
        for (std::uint32_t i = 0; i < 8; ++i)
          if (b & (1u << i)) fold ^= SecDedCodec::column(8 * j + i);
        byte_fold[j][b] = fold;
      }
    }
  }
};

const FoldTables& fold_tables() noexcept {
  static const FoldTables t;
  return t;
}

}  // namespace

void SecDedCodec::fold_syndromes(const std::uint64_t* data_masks,
                                 const std::uint8_t* check_masks,
                                 std::size_t count,
                                 std::uint8_t* syndromes) noexcept {
  const FoldTables& t = fold_tables();
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t d = data_masks[i];
    syndromes[i] = static_cast<std::uint8_t>(
        check_masks[i] ^ t.byte_fold[0][d & 0xff] ^
        t.byte_fold[1][(d >> 8) & 0xff] ^ t.byte_fold[2][(d >> 16) & 0xff] ^
        t.byte_fold[3][(d >> 24) & 0xff] ^ t.byte_fold[4][(d >> 32) & 0xff] ^
        t.byte_fold[5][(d >> 40) & 0xff] ^ t.byte_fold[6][(d >> 48) & 0xff] ^
        t.byte_fold[7][(d >> 56) & 0xff]);
  }
}

}  // namespace ftspm
