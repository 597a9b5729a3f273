// Error-handling plumbing shared by every FTSPM library.
//
// Invariant violations and misuse of the public API throw `ftspm::Error`
// (derived from std::runtime_error) so callers can distinguish library
// failures from standard-library ones.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace ftspm {

/// Base exception for all FTSPM library errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when an argument violates a documented precondition.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Thrown when an operation is attempted in an invalid state
/// (e.g. simulating a trace before a mapping plan was installed).
class StateError : public Error {
 public:
  explicit StateError(const std::string& what) : Error(what) {}
};

namespace detail {
/// Separates a failed check's text and location from its message.
inline constexpr const char* kCheckMessageSeparator = " — ";

[[noreturn]] inline void throw_check_failure(const char* kind, const char* expr,
                                             const char* file, int line,
                                             const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << kCheckMessageSeparator << msg;
  if (std::string(kind) == "FTSPM_REQUIRE") throw InvalidArgument(os.str());
  throw Error(os.str());
}
}  // namespace detail

/// The message of a failed FTSPM_CHECK or FTSPM_REQUIRE, without the
/// check text and source location in front of it; other text as is.
/// For rethrowing a shared check that user input failed as an
/// InvalidArgument the user can read.
inline std::string check_message(const std::string& what) {
  const std::string separator = detail::kCheckMessageSeparator;
  const std::string::size_type at = what.find(separator);
  return at == std::string::npos ? what : what.substr(at + separator.size());
}

}  // namespace ftspm

/// Precondition check on public-API arguments; throws InvalidArgument.
#define FTSPM_REQUIRE(cond, msg)                                           \
  do {                                                                     \
    if (!(cond))                                                           \
      ::ftspm::detail::throw_check_failure("FTSPM_REQUIRE", #cond,         \
                                           __FILE__, __LINE__, (msg));     \
  } while (false)

/// Internal invariant check; throws Error.
#define FTSPM_CHECK(cond, msg)                                             \
  do {                                                                     \
    if (!(cond))                                                           \
      ::ftspm::detail::throw_check_failure("FTSPM_CHECK", #cond, __FILE__, \
                                           __LINE__, (msg));               \
  } while (false)
