#include "ftspm/oracle/strike_oracle.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "ftspm/ecc/parity_codec.h"
#include "ftspm/ecc/secded_codec.h"
#include "ftspm/fault/batch_engine.h"
#include "ftspm/util/error.h"

namespace ftspm {

PhysicalBit locate_strike_bit(const InjectionRegion& region,
                              std::uint64_t i) {
  const std::uint32_t cw = region.geometry.codeword_bits();
  if (region.interleave <= 1) return region.geometry.locate(i);
  const std::uint64_t group_bits =
      static_cast<std::uint64_t>(cw) * region.interleave;
  const std::uint64_t group = i / group_bits;
  const std::uint64_t within = i % group_bits;
  PhysicalBit pb;
  pb.word_index = group * region.interleave + (within % region.interleave);
  pb.bit_in_codeword = static_cast<std::uint32_t>(within / region.interleave);
  return pb;
}

namespace {

/// Classifies the flips that landed in one codeword via the full
/// encode/flip/decode oracle. Superseded by classify_word_pattern (the
/// kernel classify_strike runs); kept as the ground truth
/// classify_strike_oracle exposes to tests and benchmarks.
StrikeOutcome classify_word_oracle(ProtectionKind protection,
                                   const std::vector<std::uint32_t>& bits,
                                   Rng& rng) {
  const std::uint64_t original = rng.next_u64();
  switch (protection) {
    case ProtectionKind::Immune:
      return StrikeOutcome::Masked;
    case ProtectionKind::None: {
      // No check bits: any flip silently corrupts the stored word.
      return bits.empty() ? StrikeOutcome::Masked : StrikeOutcome::Sdc;
    }
    case ProtectionKind::Parity: {
      ParityWord w = ParityCodec::encode(original);
      for (std::uint32_t b : bits) ParityCodec::flip_bit(w, b);
      const DecodeResult r = ParityCodec::decode(w);
      if (r.status == DecodeStatus::Detected) return StrikeOutcome::Due;
      return r.data == original ? StrikeOutcome::Masked : StrikeOutcome::Sdc;
    }
    case ProtectionKind::SecDed: {
      SecDedWord w = SecDedCodec::encode(original);
      for (std::uint32_t b : bits) SecDedCodec::flip_bit(w, b);
      const DecodeResult r = SecDedCodec::decode(w);
      switch (r.status) {
        case DecodeStatus::Clean:
          return r.data == original ? StrikeOutcome::Masked
                                    : StrikeOutcome::Sdc;
        case DecodeStatus::Corrected:
          return r.data == original ? StrikeOutcome::Dre
                                    : StrikeOutcome::Sdc;
        case DecodeStatus::Detected:
          return StrikeOutcome::Due;
      }
      return StrikeOutcome::Sdc;
    }
  }
  throw InvalidArgument("unknown protection kind");
}

/// Classifies one struck codeword from its error pattern alone (the
/// codecs are linear, so stored data is irrelevant — see
/// PatternDecode). `check_mask` holds the flipped check bits shifted
/// down to bit 0.
StrikeOutcome classify_word_pattern(ProtectionKind protection,
                                    std::uint64_t data_mask,
                                    std::uint32_t check_mask, Rng& rng) {
  // Immune words never reach here from classify_strike (it returns
  // before gathering hits), so no draw happens on this path and
  // skipping it cannot perturb any established RNG stream.
  if (protection == ProtectionKind::Immune) return StrikeOutcome::Masked;
  // The oracle drew the word's original contents here. The outcome
  // never depended on that value (linearity) — including for
  // unprotected words, where it was always wasted — but the draw is
  // retained so RNG streams, and therefore campaign counters at a
  // fixed seed, stay bit-identical with the pre-kernel implementation.
  // Any future hot-loop change must preserve this draw order; see
  // docs/performance.md.
  (void)rng.next_u64();
  return detail::word_outcome(protection, data_mask, check_mask);
}

using WordHit = std::pair<std::uint64_t, std::uint32_t>;

/// Classifies the gathered, word-sorted hits of one strike by folding
/// each codeword's hits into (data_mask, check_mask) and running the
/// syndrome kernel. One RNG draw per struck word, like the oracle.
StrikeOutcome classify_hits(ProtectionKind protection, const WordHit* hits,
                            std::size_t count, Rng& rng) {
  StrikeOutcome worst = StrikeOutcome::Masked;
  std::size_t i = 0;
  while (i < count) {
    const std::uint64_t word = hits[i].first;
    std::uint64_t data_mask = 0;
    std::uint32_t check_mask = 0;
    for (; i < count && hits[i].first == word; ++i) {
      const std::uint32_t bit = hits[i].second;
      if (bit < RegionGeometry::kDataBitsPerWord)
        data_mask |= 1ULL << bit;
      else
        check_mask |= 1u << (bit - RegionGeometry::kDataBitsPerWord);
    }
    worst = std::max(worst,
                     classify_word_pattern(protection, data_mask, check_mask,
                                           rng));
  }
  return worst;
}

/// Gathers a strike's surviving flips into `hits` (clipped at the array
/// edge, interleave-aware) and sorts them by word. `hits` must hold
/// `flips` entries. Small strike footprints make insertion sort the
/// right tool — the common multiplicities are 1-4 hits.
std::size_t gather_hits(const InjectionRegion& region,
                        std::uint64_t first_bit, std::uint32_t flips,
                        std::uint64_t surface, WordHit* hits) {
  std::size_t n = 0;
  for (std::uint32_t k = 0; k < flips && first_bit + k < surface; ++k) {
    const PhysicalBit pb = locate_strike_bit(region, first_bit + k);
    if (pb.word_index >= region.geometry.words()) continue;
    hits[n++] = WordHit{pb.word_index, pb.bit_in_codeword};
  }
  for (std::size_t i = 1; i < n; ++i) {
    const WordHit h = hits[i];
    std::size_t j = i;
    for (; j > 0 && hits[j - 1].first > h.first; --j) hits[j] = hits[j - 1];
    hits[j] = h;
  }
  return n;
}

}  // namespace

StrikeOutcome classify_strike(const InjectionRegion& region,
                              std::uint64_t first_bit, std::uint32_t flips,
                              Rng& rng, CampaignScratch& scratch) {
  FTSPM_REQUIRE(flips >= 1, "a strike flips at least one bit");
  if (region.protection == ProtectionKind::Immune)
    return StrikeOutcome::Masked;

  const std::uint64_t surface = region.geometry.physical_bits();
  FTSPM_REQUIRE(first_bit < surface, "strike origin outside the region");

  WordHit* hits = scratch.hits.data();
  if (flips > CampaignScratch::kInlineHits) {
    scratch.spill.clear();
    scratch.spill.resize(flips);
    hits = scratch.spill.data();
  }
  const std::size_t n = gather_hits(region, first_bit, flips, surface, hits);
  return classify_hits(region.protection, hits, n, rng);
}

StrikeOutcome classify_strike(const InjectionRegion& region,
                              std::uint64_t first_bit, std::uint32_t flips,
                              Rng& rng) {
  // The inline hit array lives on the stack; only pathological flip
  // counts (> kInlineHits) cost an allocation on this scratch-less
  // convenience overload.
  CampaignScratch scratch;
  return classify_strike(region, first_bit, flips, rng, scratch);
}

StrikeOutcome classify_strike_oracle(const InjectionRegion& region,
                                     std::uint64_t first_bit,
                                     std::uint32_t flips, Rng& rng) {
  FTSPM_REQUIRE(flips >= 1, "a strike flips at least one bit");
  if (region.protection == ProtectionKind::Immune)
    return StrikeOutcome::Masked;

  const std::uint64_t surface = region.geometry.physical_bits();
  FTSPM_REQUIRE(first_bit < surface, "strike origin outside the region");

  // Gather flips per codeword (clipped at the array edge).
  std::vector<std::pair<std::uint64_t, std::uint32_t>> hits;
  for (std::uint32_t k = 0; k < flips && first_bit + k < surface; ++k) {
    const PhysicalBit pb = locate_strike_bit(region, first_bit + k);
    if (pb.word_index >= region.geometry.words()) continue;
    hits.emplace_back(pb.word_index, pb.bit_in_codeword);
  }
  std::sort(hits.begin(), hits.end());

  StrikeOutcome worst = StrikeOutcome::Masked;
  std::size_t i = 0;
  while (i < hits.size()) {
    std::vector<std::uint32_t> word_bits;
    const std::uint64_t word = hits[i].first;
    for (; i < hits.size() && hits[i].first == word; ++i)
      word_bits.push_back(hits[i].second);
    worst = std::max(worst, classify_word_oracle(region.protection, word_bits,
                                                 rng));
  }
  return worst;
}

}  // namespace ftspm
