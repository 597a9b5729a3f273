// ScratchPad memory layout: named regions with technologies.
//
// A layout describes one SPM organisation from the paper's Table IV —
// e.g. FTSPM's {16 KiB STT-RAM I-SPM; 12 KiB STT-RAM + 2 KiB SEC-DED +
// 2 KiB parity D-SPM} — as a flat list of regions. The simulator and
// the mapping pipeline address regions by index (RegionId).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ftspm/mem/geometry.h"
#include "ftspm/mem/technology.h"
#include "ftspm/util/error.h"

namespace ftspm {

/// Index of a region within an SpmLayout.
using RegionId = std::uint32_t;

/// Sentinel: block is not SPM-mapped (served by cache + off-chip).
inline constexpr RegionId kNoRegion = static_cast<RegionId>(-1);

/// Which address space a region serves.
enum class SpmSpace : std::uint8_t { Instruction, Data };

const char* to_string(SpmSpace space) noexcept;

/// One physical SPM region.
struct SpmRegionSpec {
  std::string name;
  SpmSpace space = SpmSpace::Data;
  std::uint64_t data_bytes = 0;
  TechnologyParams tech;
  /// Physical bit interleaving degree of the array: adjacent physical
  /// bits belong to `interleave` different codewords, so an adjacent
  /// MBU scatters into that many words (1 = no interleaving, the
  /// paper's configuration). Consumed by the reliability models.
  std::uint32_t interleave = 1;

  std::uint64_t data_words() const noexcept { return data_bytes / 8; }
  RegionGeometry geometry() const {
    return RegionGeometry::for_params(data_bytes, tech);
  }
};

/// A complete SPM organisation.
class SpmLayout {
 public:
  SpmLayout(std::string name, std::vector<SpmRegionSpec> regions);

  const std::string& name() const noexcept { return name_; }
  const std::vector<SpmRegionSpec>& regions() const noexcept {
    return regions_;
  }
  const SpmRegionSpec& region(RegionId id) const {
    FTSPM_REQUIRE(id < regions_.size(), "region id out of range");
    return regions_[id];
  }
  std::size_t region_count() const noexcept { return regions_.size(); }

  std::optional<RegionId> find(std::string_view name) const noexcept;

  /// Payload bytes over all regions / per space.
  std::uint64_t total_data_bytes() const noexcept;
  std::uint64_t space_data_bytes(SpmSpace space) const noexcept;

  /// Total physical storage bits including check bits — the strike
  /// surface the AVF model weights regions by.
  std::uint64_t total_physical_bits() const;

  /// Static power of the whole SPM complement (all regions powered).
  double static_power_mw() const noexcept;

 private:
  std::string name_;
  std::vector<SpmRegionSpec> regions_;
};

}  // namespace ftspm
