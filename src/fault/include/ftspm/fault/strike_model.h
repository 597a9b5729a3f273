// Radiation-strike multiplicity model.
//
// The paper takes its bit-flip multiplicity distribution from Dixit &
// Wood, IRPS'11: at the 40 nm node, a particle strike flips one bit with
// probability 62%, two bits 25%, three bits 6%, and more than three 7%.
// Multi-bit upsets flip *physically adjacent* cells, which is what makes
// word-interleaving an effective countermeasure (exercised as an
// ablation) and what the Monte-Carlo injector models by flipping
// consecutive physical bits.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "ftspm/util/rng.h"

namespace ftspm {

/// Most bits one strike flips: the ">3" tail is capped here by every
/// campaign and, by default, by the analytic pmf.
inline constexpr std::uint32_t kMaxFlips = 16;

/// Distribution of flips-per-strike at one process node.
class StrikeMultiplicityModel {
 public:
  /// The paper's node (Dixit & Wood 40 nm numbers).
  static StrikeMultiplicityModel at_40nm();
  /// Older / newer nodes for sensitivity studies (MBUs grow as cells
  /// shrink; values follow the same source's trend).
  static StrikeMultiplicityModel at_90nm();
  static StrikeMultiplicityModel at_65nm();
  static StrikeMultiplicityModel at_22nm();
  /// Nearest modelled node for an arbitrary feature size.
  static StrikeMultiplicityModel for_node(double node_nm);

  /// p1..p3 are P(exactly k flips); p_gt3 = P(more than 3). Must sum
  /// to 1 (validated).
  StrikeMultiplicityModel(double p1, double p2, double p3, double p_gt3);

  double p_exactly(unsigned flips) const;      ///< flips in {1,2,3}.
  double p_at_least(unsigned flips) const;     ///< flips in {1..4}; 4
                                               ///< means "> 3" tail.
  double p_more_than_3() const noexcept { return p_gt3_; }

  /// Samples a concrete flip count. The ">3" tail is drawn as
  /// 4 + Geometric(1/2), capped at `max_flips`.
  std::uint32_t sample_flips(Rng& rng,
                             std::uint32_t max_flips = kMaxFlips) const;

  /// The concrete probability mass function the sampler realises:
  /// index k (1-based) holds P(exactly k flips); the ">3" tail is
  /// spread as 4 + Geometric(1/2) truncated at `max_flips`. Sums to 1.
  /// This is what makes the analytic equations and the Monte-Carlo
  /// campaign agree on the tail.
  std::vector<double> pmf(std::uint32_t max_flips = kMaxFlips) const;

 private:
  double p1_, p2_, p3_, p_gt3_;
};

}  // namespace ftspm
