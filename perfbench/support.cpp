#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "perfbench.h"

#include "ftspm/fault/injector.h"
#include "ftspm/util/rng.h"

namespace perfbench {

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

bool Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
  }
  return ok;
}

void Report::merge_tally(std::uint64_t attempted, std::uint64_t failed,
                         const std::vector<std::string>& failures) {
  attempted_ += attempted;
  failed_ += failed;
  failures_.insert(failures_.end(), failures.begin(), failures.end());
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t request)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = static_cast<std::int32_t>(tracer_.spans_.size());
  tracer_.spans_.push_back(Span{name, now_ns(), 0, tracer_.open_, request});
  tracer_.open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
  span.end_ns = now_ns();
  tracer_.open_ = span.parent;
}

void Tracer::write_events(ftspm::JsonWriter& w, int tid) const {
  for (const Span& s : spans_) {
    w.begin_object()
        .field("name", s.name)
        .field("ph", "X")
        .field("pid", std::uint64_t{1})
        .field("tid", static_cast<std::uint64_t>(tid))
        .field("ts", static_cast<double>(s.start_ns) / 1e3)
        .field("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    w.begin_object("args")
        .field("request", s.request)
        .field("parent", static_cast<std::int64_t>(s.parent))
        .end_object();
    w.end_object();
  }
}

std::uint64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::uint64_t derive_seed(std::uint64_t run_seed, std::uint64_t stream,
                          std::uint64_t index) {
  std::uint64_t state = run_seed ^ (stream * 0x9e3779b97f4a7c15ULL);
  ftspm::splitmix64(state);
  state ^= index;
  return ftspm::splitmix64(state) & ((std::uint64_t{1} << 53) - 1);
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives exec, so a child of a
  // large parent would report the parent's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::uint64_t bulk_strikes(Kind kind, bool smoke) {
  if (smoke) return 50'000;
  return kind == Kind::Static ? 20'000'000 : 8'000'000;
}

ftspm::serve::CampaignSpec static_spec(std::uint64_t strikes,
                                       std::uint64_t seed) {
  ftspm::serve::CampaignSpec spec;
  spec.strikes = strikes;
  spec.seed = seed;
  spec.shards = 4;
  return spec;
}

ftspm::serve::CampaignSpec recovery_spec(std::uint64_t strikes,
                                         std::uint64_t seed) {
  ftspm::serve::CampaignSpec spec = static_spec(strikes, seed);
  spec.recover = true;
  // Below 1.0 so the scrubber finds latent errors: at full occupancy
  // every struck word is demand-read first.
  spec.occupancy = 0.25;
  spec.scrub_interval = 1024;
  spec.dirty_fraction = 0.25;
  spec.refetch_words = 64;
  return spec;
}

ftspm::serve::CampaignSpec bulk_spec(Kind kind, std::uint64_t strikes,
                                     std::uint64_t seed) {
  return kind == Kind::Static ? static_spec(strikes, seed)
                              : recovery_spec(strikes, seed);
}

ftspm::serve::CampaignSpec served_spec(std::uint64_t seed) {
  ftspm::serve::CampaignSpec spec;
  spec.strikes = kServedStrikes;
  spec.seed = seed;
  return spec;
}

std::uint64_t Counters::get(const std::string& name) const {
  for (const auto& [key, value] : values)
    if (key == name) return value;
  throw std::runtime_error("no counter '" + name + "'");
}

bool Counters::outcomes_sum() const {
  return get("masked") + get("dre") + get("due") + get("sdc") ==
         get("strikes");
}

std::string Counters::to_json() const {
  ftspm::JsonWriter w;
  w.begin_object();
  for (const auto& [key, value] : values) w.field(key, value);
  w.end_object();
  return w.str();
}

Counters counters_of(const ftspm::serve::CampaignSpec& spec,
                     const ftspm::serve::CampaignOutcome& outcome) {
  return Counters{ftspm::serve::campaign_spec_record(spec, outcome).counters};
}

Counters counters_of(const ftspm::JsonValue& counters_object) {
  Counters out;
  for (const auto& [key, value] : counters_object.object)
    out.values.emplace_back(key, static_cast<std::uint64_t>(value.number));
  return out;
}

Counters counters_of(const ftspm::CampaignResult& r) {
  return Counters{{{"strikes", r.strikes},
                   {"masked", r.masked},
                   {"dre", r.dre},
                   {"due", r.due},
                   {"sdc", r.sdc}}};
}

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read pinned values '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

Pinned::Pinned(const std::string& path)
    : root_(ftspm::parse_json(read_file(path))) {}

bool Pinned::matches(const std::string& name, const Counters& got,
                     std::string& why) const {
  const ftspm::JsonValue* want = root_.find(name);
  if (want == nullptr || !want->is_object()) {
    why = "no pinned counters '" + name + "'";
    return false;
  }
  // Order-insensitive: the pinned file is written with sorted keys.
  bool ok = want->object.size() == got.values.size();
  for (const auto& [key, value] : got.values) {
    const ftspm::JsonValue* w = want->find(key);
    if (w == nullptr || !w->is_number() ||
        static_cast<std::uint64_t>(w->number) != value)
      ok = false;
  }
  if (!ok) why = name + ": got " + got.to_json() + ", pinned " + want->dump();
  return ok;
}

bool Pinned::matches(const std::string& name, double got,
                     std::string& why) const {
  const ftspm::JsonValue* want = root_.find(name);
  if (want == nullptr || !want->is_number()) {
    why = "no pinned value '" + name + "'";
    return false;
  }
  // Simulated quantities are deterministic; the tolerance only absorbs
  // the last-digit rounding of the pinned decimal text.
  const double tol = 1e-9 * std::max(1.0, std::fabs(want->number));
  if (std::fabs(got - want->number) <= tol) return true;
  why = name + ": got " + ftspm::JsonWriter::number(got) + ", pinned " +
        ftspm::JsonWriter::number(want->number);
  return false;
}

std::uint64_t default_seed() { return ftspm::CampaignConfig{}.seed; }

}  // namespace perfbench
