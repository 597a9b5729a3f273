#include "ftspm/fault/sensitivity.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "ftspm/mem/technology.h"
#include "ftspm/obs/metrics.h"
#include "ftspm/util/error.h"

namespace ftspm {

namespace {

constexpr std::string_view kCsvHeader =
    "region,label,protection,bucket,first_bit,last_bit,strikes,masked,dre,"
    "due,sdc";

/// First physical bit mapped to `bucket` (the inverse of bucket_of's
/// floor(bit * buckets / bits)). A bucket narrower than one bit comes
/// out with first_bit > last_bit and simply never receives strikes.
std::uint64_t bucket_first_bit(std::uint64_t bucket, std::uint64_t bits,
                               std::uint64_t buckets) {
  return (bucket * bits + buckets - 1) / buckets;
}

}  // namespace

SensitivityGrid::SensitivityGrid(std::vector<RegionSpec> regions,
                                 std::uint32_t buckets)
    : regions_(std::move(regions)), buckets_(buckets) {
  FTSPM_REQUIRE(buckets_ >= 1, "sensitivity grid needs at least one bucket");
  FTSPM_REQUIRE(!regions_.empty(),
                "sensitivity grid needs at least one region");
  for (const RegionSpec& r : regions_) {
    FTSPM_REQUIRE(r.physical_bits != 0,
                  "sensitivity region '" + r.label + "' has no surface");
    FTSPM_REQUIRE(r.physical_bits <=
                      std::numeric_limits<std::uint64_t>::max() / buckets_,
                  "sensitivity bucket math would overflow for region '" +
                      r.label + "'");
  }
  counts_.assign(regions_.size() * buckets_ * kOutcomes, 0);
}

std::uint64_t SensitivityGrid::bucket_strikes(std::size_t region,
                                              std::size_t bucket)
    const noexcept {
  const std::size_t base = (region * buckets_ + bucket) * kOutcomes;
  std::uint64_t total = 0;
  for (std::size_t o = 0; o < kOutcomes; ++o) total += counts_[base + o];
  return total;
}

CampaignResult SensitivityGrid::region_totals(std::size_t region)
    const noexcept {
  CampaignResult r;
  for (std::size_t b = 0; b < buckets_; ++b) {
    r.masked += count(region, b, StrikeOutcome::Masked);
    r.dre += count(region, b, StrikeOutcome::Dre);
    r.due += count(region, b, StrikeOutcome::Due);
    r.sdc += count(region, b, StrikeOutcome::Sdc);
  }
  r.strikes = r.masked + r.dre + r.due + r.sdc;
  return r;
}

CampaignResult SensitivityGrid::totals() const noexcept {
  CampaignResult r;
  for (std::size_t region = 0; region < regions_.size(); ++region) {
    const CampaignResult part = region_totals(region);
    r.strikes += part.strikes;
    r.masked += part.masked;
    r.dre += part.dre;
    r.due += part.due;
    r.sdc += part.sdc;
  }
  return r;
}

void SensitivityGrid::merge_from(const SensitivityGrid& other) {
  FTSPM_REQUIRE(active() && other.active(),
                "cannot merge an inactive sensitivity grid");
  FTSPM_REQUIRE(buckets_ == other.buckets_ &&
                    regions_.size() == other.regions_.size(),
                "sensitivity grids have different geometry");
  for (std::size_t i = 0; i < regions_.size(); ++i)
    FTSPM_REQUIRE(regions_[i].label == other.regions_[i].label &&
                      regions_[i].protection == other.regions_[i].protection &&
                      regions_[i].physical_bits ==
                          other.regions_[i].physical_bits,
                  "sensitivity grids have different regions");
  for (std::size_t i = 0; i < counts_.size(); ++i)
    counts_[i] += other.counts_[i];
}

std::string SensitivityGrid::to_csv() const {
  FTSPM_REQUIRE(active(), "cannot serialize an inactive sensitivity grid");
  std::string out(kCsvHeader);
  out += '\n';
  for (std::size_t region = 0; region < regions_.size(); ++region) {
    const RegionSpec& spec = regions_[region];
    for (std::uint64_t b = 0; b < buckets_; ++b) {
      const std::uint64_t first =
          bucket_first_bit(b, spec.physical_bits, buckets_);
      const std::uint64_t next =
          bucket_first_bit(b + 1, spec.physical_bits, buckets_);
      out += std::to_string(region);
      out += ',';
      out += spec.label;
      out += ',';
      out += spec.protection;
      out += ',';
      out += std::to_string(b);
      out += ',';
      out += std::to_string(first);
      out += ',';
      // An empty bucket (grid finer than the surface) renders with
      // last_bit = first_bit - 1.
      out += std::to_string(next == 0 ? 0 : next - 1);
      out += ',';
      out += std::to_string(bucket_strikes(region, b));
      for (const StrikeOutcome o :
           {StrikeOutcome::Masked, StrikeOutcome::Dre, StrikeOutcome::Due,
            StrikeOutcome::Sdc}) {
        out += ',';
        out += std::to_string(count(region, b, o));
      }
      out += '\n';
    }
  }
  return out;
}

SensitivityGrid SensitivityGrid::from_csv(std::string_view text) {
  std::vector<std::string_view> lines;
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    std::string_view line =
        eol == std::string_view::npos ? text : text.substr(0, eol);
    text = eol == std::string_view::npos ? std::string_view()
                                         : text.substr(eol + 1);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) lines.push_back(line);
  }
  FTSPM_REQUIRE(!lines.empty() && lines[0] == kCsvHeader,
                "not a sensitivity grid CSV (bad header)");
  FTSPM_REQUIRE(lines.size() >= 2, "sensitivity grid CSV has no rows");

  const auto split = [](std::string_view line) {
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (true) {
      const std::size_t comma = line.find(',', start);
      fields.emplace_back(line.substr(
          start, comma == std::string_view::npos ? comma : comma - start));
      if (comma == std::string_view::npos) break;
      start = comma + 1;
    }
    return fields;
  };
  const auto number = [](const std::string& field, const char* what) {
    try {
      std::size_t consumed = 0;
      const unsigned long long v = std::stoull(field, &consumed);
      FTSPM_REQUIRE(consumed == field.size(),
                    std::string("bad ") + what + " '" + field +
                        "' in sensitivity grid CSV");
      return static_cast<std::uint64_t>(v);
    } catch (const Error&) {
      throw;
    } catch (const std::exception&) {
      throw Error(std::string("bad ") + what + " '" + field +
                  "' in sensitivity grid CSV");
    }
  };

  std::vector<RegionSpec> regions;
  std::uint64_t buckets = 0;
  struct Cell {
    std::size_t region;
    std::uint64_t bucket;
    std::uint64_t outcomes[kOutcomes];
  };
  std::vector<Cell> cells;
  cells.reserve(lines.size() - 1);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::vector<std::string> f = split(lines[i]);
    FTSPM_REQUIRE(f.size() == 11, "sensitivity grid CSV row " +
                                      std::to_string(i) +
                                      " has the wrong field count");
    const std::uint64_t region = number(f[0], "region index");
    const std::uint64_t bucket = number(f[3], "bucket index");
    if (region == regions.size()) {
      FTSPM_REQUIRE(bucket == 0,
                    "sensitivity grid CSV region must start at bucket 0");
      regions.push_back(RegionSpec{f[1], f[2], 0});
    }
    FTSPM_REQUIRE(region + 1 == regions.size(),
                  "sensitivity grid CSV rows must be region-major");
    const std::uint64_t last_bit = number(f[5], "last_bit");
    regions.back().physical_bits =
        std::max(regions.back().physical_bits, last_bit + 1);
    buckets = std::max(buckets, bucket + 1);
    Cell cell{static_cast<std::size_t>(region), bucket, {}};
    const std::uint64_t strikes = number(f[6], "strikes");
    std::uint64_t sum = 0;
    for (std::size_t o = 0; o < kOutcomes; ++o) {
      cell.outcomes[o] = number(f[7 + o], "outcome count");
      sum += cell.outcomes[o];
    }
    FTSPM_REQUIRE(sum == strikes,
                  "sensitivity grid CSV row " + std::to_string(i) +
                      ": outcome counts do not sum to strikes");
    cells.push_back(cell);
  }
  FTSPM_REQUIRE(buckets <= std::numeric_limits<std::uint32_t>::max(),
                "sensitivity grid CSV bucket count out of range");
  SensitivityGrid grid(std::move(regions),
                       static_cast<std::uint32_t>(buckets));
  FTSPM_REQUIRE(cells.size() == grid.region_count() * grid.buckets(),
                "sensitivity grid CSV is missing rows");
  for (const Cell& cell : cells) {
    FTSPM_REQUIRE(cell.bucket < grid.buckets(),
                  "sensitivity grid CSV bucket index out of range");
    const std::size_t base =
        (cell.region * grid.buckets_ + cell.bucket) * kOutcomes;
    for (std::size_t o = 0; o < kOutcomes; ++o)
      grid.counts_[base + o] = cell.outcomes[o];
  }
  return grid;
}

namespace {

std::vector<SensitivityGrid::RegionSpec> make_specs(
    std::size_t count, const std::vector<std::string>& labels,
    const std::function<SensitivityGrid::RegionSpec(std::size_t)>& spec_of) {
  FTSPM_REQUIRE(labels.empty() || labels.size() == count,
                "sensitivity grid label count does not match regions");
  std::vector<SensitivityGrid::RegionSpec> specs;
  specs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    SensitivityGrid::RegionSpec spec = spec_of(i);
    spec.label = labels.empty() ? "r" + std::to_string(i) : labels[i];
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace

SensitivityGrid make_sensitivity_grid(
    const std::vector<InjectionRegion>& regions, std::uint32_t buckets,
    const std::vector<std::string>& labels) {
  return SensitivityGrid(
      make_specs(regions.size(), labels,
                 [&](std::size_t i) {
                   return SensitivityGrid::RegionSpec{
                       "", to_string(regions[i].protection),
                       regions[i].geometry.physical_bits()};
                 }),
      buckets);
}

SensitivityGrid make_sensitivity_grid(
    const std::vector<RecoveryRegion>& regions, std::uint32_t buckets,
    const std::vector<std::string>& labels) {
  return SensitivityGrid(
      make_specs(regions.size(), labels,
                 [&](std::size_t i) {
                   return SensitivityGrid::RegionSpec{
                       "", to_string(regions[i].inject.protection),
                       regions[i].inject.geometry.physical_bits()};
                 }),
      buckets);
}

void emit_sensitivity_metrics(const SensitivityGrid& grid,
                              std::string_view phase,
                              obs::Registry* registry) {
  if (registry == nullptr || !grid.active()) return;
  obs::Registry& reg = *registry;
  // Log-spaced strike-count buckets: wide enough for anything from a
  // smoke test to a billion-strike campaign.
  const std::vector<double> bounds{1.0,    10.0,    100.0,    1000.0,
                                   10000.0, 100000.0, 1000000.0};
  for (std::size_t r = 0; r < grid.region_count(); ++r) {
    const SensitivityGrid::RegionSpec& spec = grid.regions()[r];
    const CampaignResult totals = grid.region_totals(r);
    const std::pair<const char*, std::uint64_t> outcomes[] = {
        {"masked", totals.masked},
        {"dre", totals.dre},
        {"due", totals.due},
        {"sdc", totals.sdc}};
    for (const auto& [outcome, n] : outcomes) {
      if (n == 0) continue;
      reg.counter("campaign.outcome", obs::LabelSet{{"ecc", spec.protection},
                                                    {"outcome", outcome},
                                                    {"phase", phase},
                                                    {"region", spec.label}})
          .add(n);
    }
    obs::Histogram& concentration = reg.histogram(
        "campaign.bucket_strikes",
        obs::LabelSet{
            {"ecc", spec.protection}, {"phase", phase}, {"region", spec.label}},
        bounds);
    for (std::size_t b = 0; b < grid.buckets(); ++b)
      concentration.observe(
          static_cast<double>(grid.bucket_strikes(r, b)));
  }
}

}  // namespace ftspm
