#include "ftspm/util/args.h"

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "ftspm/util/error.h"

namespace ftspm {

ArgParser& ArgParser::add_flag(const std::string& name) {
  FTSPM_REQUIRE(!specs_.count(name), "duplicate option --" + name);
  specs_[name] = Spec{false, "", false};
  return *this;
}

ArgParser& ArgParser::add_option(const std::string& name,
                                 std::string default_value) {
  FTSPM_REQUIRE(!specs_.count(name), "duplicate option --" + name);
  specs_[name] = Spec{true, std::move(default_value), false};
  return *this;
}

// FTSPM_REQUIRE guards the parser's own API (an option registered
// twice, or read under a name or kind it was not registered with): a
// programmer error. Bad user input throws InvalidArgument with the
// message alone, which the CLI prints as is.
const ArgParser::Spec& ArgParser::known(const std::string& name) const {
  auto it = specs_.find(name);
  FTSPM_REQUIRE(it != specs_.end(), "unknown option --" + name);
  return it->second;
}

void ArgParser::parse(int argc, const char* const* argv, int start) {
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    std::string inline_value;
    bool has_inline = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      inline_value = arg.substr(eq + 1);
      arg.erase(eq);
      has_inline = true;
    }
    const auto it = specs_.find(arg);
    if (it == specs_.end()) throw InvalidArgument("unknown option --" + arg);
    Spec& spec = it->second;
    spec.seen = true;
    if (!spec.takes_value) {
      if (has_inline)
        throw InvalidArgument("--" + arg + " does not take a value");
      continue;
    }
    if (has_inline) {
      spec.value = std::move(inline_value);
    } else {
      if (i + 1 >= argc) throw InvalidArgument("--" + arg + " needs a value");
      spec.value = argv[++i];
    }
  }
}

bool ArgParser::flag(const std::string& name) const {
  const Spec& spec = known(name);
  FTSPM_REQUIRE(!spec.takes_value, "--" + name + " is not a flag");
  return spec.seen;
}

const std::string& ArgParser::option(const std::string& name) const {
  const Spec& spec = known(name);
  FTSPM_REQUIRE(spec.takes_value, "--" + name + " is a flag");
  return spec.value;
}

std::uint64_t parse_uint(const std::string& flag, const std::string& raw,
                         std::uint64_t max) {
  // Digits only: strtoull would accept leading whitespace, a sign
  // (silently wrapping "-1" to 2^64-1), and clamp on overflow — all of
  // which have bitten real flag typos. Parse by hand instead.
  bool ok = !raw.empty();
  std::uint64_t v = 0;
  for (const char c : raw) {
    if (c < '0' || c > '9') {
      ok = false;
      break;
    }
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) {
      ok = false;  // would overflow
      break;
    }
    v = v * 10 + digit;
  }
  if (!ok)
    throw InvalidArgument(flag + " expects a non-negative integer, got '" +
                          raw + "'");
  if (v > max)
    throw InvalidArgument(flag + " must be at most " + std::to_string(max) +
                          ", got '" + raw + "'");
  return v;
}

std::uint64_t ArgParser::option_uint(const std::string& name,
                                     std::uint64_t max) const {
  return parse_uint("--" + name, option(name), max);
}

namespace {

/// Plain decimal shape: [+-]digits[.digits][eE[+-]digits] with at
/// least one mantissa digit. strtod alone accepts "nan", "inf",
/// "0x1p3", and leading whitespace — none of which a rate or
/// probability flag should ever see silently.
bool plain_decimal_shape(const std::string& raw) {
  std::size_t i = 0;
  const std::size_t n = raw.size();
  if (i < n && (raw[i] == '+' || raw[i] == '-')) ++i;
  std::size_t mantissa_digits = 0;
  while (i < n && raw[i] >= '0' && raw[i] <= '9') ++i, ++mantissa_digits;
  if (i < n && raw[i] == '.') {
    ++i;
    while (i < n && raw[i] >= '0' && raw[i] <= '9') ++i, ++mantissa_digits;
  }
  if (mantissa_digits == 0) return false;
  if (i < n && (raw[i] == 'e' || raw[i] == 'E')) {
    ++i;
    if (i < n && (raw[i] == '+' || raw[i] == '-')) ++i;
    std::size_t exponent_digits = 0;
    while (i < n && raw[i] >= '0' && raw[i] <= '9') ++i, ++exponent_digits;
    if (exponent_digits == 0) return false;
  }
  return i == n;
}

}  // namespace

double ArgParser::option_double(const std::string& name) const {
  const std::string& raw = option(name);
  char* end = nullptr;
  const double v = std::strtod(raw.c_str(), &end);
  // Shape first (rejects nan/inf/hex-float spellings outright), then
  // finiteness — a huge plain decimal like 1e999 overflows to inf.
  if (!plain_decimal_shape(raw) || end == nullptr || *end != '\0' ||
      !std::isfinite(v))
    throw InvalidArgument("--" + name + " expects a finite number, got '" +
                          raw + "'");
  return v;
}

double ArgParser::option_double(const std::string& name, double min_value,
                                double max_value) const {
  const double v = option_double(name);
  if (v < min_value || v > max_value) {
    std::ostringstream os;
    os << "--" << name << " must be in [" << min_value << ", " << max_value
       << "], got '" << option(name) << "'";
    throw InvalidArgument(os.str());
  }
  return v;
}

}  // namespace ftspm
