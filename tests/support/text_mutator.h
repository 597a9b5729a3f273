// The seeded text mutator of the parser mutation tests: bit flips,
// digit swaps, truncations, splices from a donor text, and numbers
// replaced by ones that overflow a field or sit at its edge.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <string>

#include "ftspm/util/rng.h"

namespace ftspm::testing_support {

/// Numbers that overflow each field's width, or sit at its edge.
inline const char* const kHugeNumbers[] = {
    "4294967295",           "4294967296",
    "65535",                "65536",
    "18446744073709551615", "18446744073709551616",
    "99999999999999999999999999", "-1",
    "0",                    "255",
};

inline std::size_t find_digit(const std::string& text, std::size_t from) {
  const std::size_t at = text.find_first_of("0123456789", from);
  return at != std::string::npos ? at
                                 : text.find_first_of("0123456789");
}

/// Applies one random mutation to `text`; `donor` lends splices.
inline void mutate(std::string& text, const std::string& donor, Rng& rng) {
  if (text.empty()) {
    text = donor.substr(0, rng.next_below(donor.size() + 1));
    return;
  }
  const std::size_t at = rng.next_below(text.size());
  switch (rng.next_below(5)) {
    case 0:  // bit flip
      text[at] = static_cast<char>(text[at] ^ (1 << rng.next_below(8)));
      break;
    case 1: {  // digit swap
      const std::size_t d = find_digit(text, at);
      if (d == std::string::npos) break;
      text[d] = static_cast<char>('0' + (text[d] - '0' + 1 +
                                         rng.next_below(9)) % 10);
      break;
    }
    case 2:  // truncation
      text.resize(at);
      break;
    case 3: {  // splice a stretch of the donor in
      const std::size_t from = rng.next_below(donor.size());
      const std::size_t len = rng.next_below(
          std::min<std::size_t>(donor.size() - from, 200) + 1);
      text.insert(at, donor, from, len);
      break;
    }
    default: {  // replace a number with a huge one
      const std::size_t d = find_digit(text, at);
      if (d == std::string::npos) break;
      const std::size_t end = text.find_first_not_of("0123456789", d);
      text.replace(d, (end == std::string::npos ? text.size() : end) - d,
                   kHugeNumbers[rng.next_below(std::size(kHugeNumbers))]);
      break;
    }
  }
}

}  // namespace ftspm::testing_support
