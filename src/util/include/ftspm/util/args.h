// Minimal command-line argument parsing for the ftspm_tool driver and
// the examples. Supports `--flag`, `--option value`, `--option=value`,
// and positional arguments; unknown options are errors. No external
// dependencies, deterministic help text.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ftspm {

/// Strict non-negative integer `raw` for the command-line option
/// `flag` (e.g. "--jobs"): digits only — no sign, whitespace or
/// trailing garbage — and at most `max`. Throws InvalidArgument naming
/// the flag and the text otherwise (exit 2 at the CLI).
std::uint64_t parse_uint(const std::string& flag, const std::string& raw,
                         std::uint64_t max = UINT64_MAX);

class ArgParser {
 public:
  /// `program` and `summary` head the usage text.
  ArgParser(std::string program, std::string summary);

  /// Registers a boolean `--name` flag.
  ArgParser& add_flag(const std::string& name, std::string help);

  /// Registers a value-taking `--name <value>` option with a default.
  ArgParser& add_option(const std::string& name, std::string help,
                        std::string default_value);

  /// Parses argv[start..). Throws InvalidArgument on unknown options,
  /// missing values, or malformed numbers requested later.
  void parse(int argc, const char* const* argv, int start = 1);

  bool flag(const std::string& name) const;
  const std::string& option(const std::string& name) const;
  /// parse_uint of the option's value.
  std::uint64_t option_uint(const std::string& name,
                            std::uint64_t max = UINT64_MAX) const;
  /// Strict finite decimal: plain `[+-]digits[.digits][e[+-]digits]`
  /// shape only — rejects `nan`, `inf`, hex floats, leading
  /// whitespace, and trailing garbage with InvalidArgument (exit 2 at
  /// the CLI), all of which strtod would happily accept.
  double option_double(const std::string& name) const;
  /// option_double plus an inclusive [min_value, max_value] range
  /// check, for probability- and rate-shaped flags.
  double option_double(const std::string& name, double min_value,
                       double max_value) const;
  const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

  std::string usage() const;

 private:
  struct Spec {
    std::string help;
    bool takes_value = false;
    std::string value;  // default, then parsed
    bool seen = false;
  };

  const Spec& known(const std::string& name) const;

  std::string program_;
  std::string summary_;
  std::map<std::string, Spec> specs_;
  std::vector<std::string> order_;
  std::vector<std::string> positionals_;
};

}  // namespace ftspm
