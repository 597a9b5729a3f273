#include "ftspm/sim/spm.h"

#include "ftspm/util/error.h"

namespace ftspm {

const char* to_string(SpmSpace space) noexcept {
  return space == SpmSpace::Instruction ? "I-SPM" : "D-SPM";
}

SpmLayout::SpmLayout(std::string name, std::vector<SpmRegionSpec> regions)
    : name_(std::move(name)), regions_(std::move(regions)) {
  FTSPM_REQUIRE(!regions_.empty(), "layout needs at least one region");
  for (const auto& r : regions_) {
    FTSPM_REQUIRE(!r.name.empty(), "region needs a name");
    FTSPM_REQUIRE(r.data_bytes > 0 && r.data_bytes % 8 == 0,
                  "region size must be a positive multiple of 8: " + r.name);
  }
}

std::optional<RegionId> SpmLayout::find(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < regions_.size(); ++i)
    if (regions_[i].name == name) return static_cast<RegionId>(i);
  return std::nullopt;
}

std::uint64_t SpmLayout::total_data_bytes() const noexcept {
  std::uint64_t n = 0;
  for (const auto& r : regions_) n += r.data_bytes;
  return n;
}

std::uint64_t SpmLayout::space_data_bytes(SpmSpace space) const noexcept {
  std::uint64_t n = 0;
  for (const auto& r : regions_)
    if (r.space == space) n += r.data_bytes;
  return n;
}

std::uint64_t SpmLayout::total_physical_bits() const {
  std::uint64_t n = 0;
  for (const auto& r : regions_) n += r.geometry().physical_bits();
  return n;
}

double SpmLayout::static_power_mw() const noexcept {
  double p = 0.0;
  for (const auto& r : regions_) p += r.tech.static_power_mw(r.data_bytes);
  return p;
}

}  // namespace ftspm
