#include "ftspm/mem/geometry.h"

#include "ftspm/util/error.h"

namespace ftspm {

RegionGeometry::RegionGeometry(std::uint64_t data_bytes,
                               std::uint32_t check_bits_per_word)
    : data_bytes_(data_bytes),
      words_(data_bytes / 8),
      check_bits_(check_bits_per_word) {
  FTSPM_REQUIRE(data_bytes > 0, "region must be non-empty");
  FTSPM_REQUIRE(data_bytes % 8 == 0, "region size must be word-aligned");
  FTSPM_REQUIRE(check_bits_per_word <= kMaxCheckBitsPerWord,
                "check-bit overhead out of range");
}

RegionGeometry RegionGeometry::for_params(std::uint64_t data_bytes,
                                          const TechnologyParams& params) {
  std::uint32_t check = 0;
  switch (params.protection) {
    case ProtectionKind::None:
    case ProtectionKind::Immune:
      check = 0;
      break;
    case ProtectionKind::Parity:
      check = 1;
      break;
    case ProtectionKind::SecDed:
      check = 8;
      break;
  }
  return RegionGeometry(data_bytes, check);
}

PhysicalBit RegionGeometry::locate(std::uint64_t physical_bit_index) const {
  FTSPM_REQUIRE(physical_bit_index < physical_bits(),
                "physical bit index out of range");
  PhysicalBit pb;
  pb.word_index = physical_bit_index / codeword_bits();
  pb.bit_in_codeword =
      static_cast<std::uint32_t>(physical_bit_index % codeword_bits());
  return pb;
}

}  // namespace ftspm
