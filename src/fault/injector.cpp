#include "ftspm/fault/injector.h"

#include "ftspm/ecc/parity_codec.h"
#include "ftspm/ecc/secded_codec.h"
#include "ftspm/fault/batch_engine.h"
#include "ftspm/util/error.h"

namespace ftspm {

const char* to_string(StrikeOutcome outcome) noexcept {
  switch (outcome) {
    case StrikeOutcome::Masked: return "masked";
    case StrikeOutcome::Dre: return "DRE";
    case StrikeOutcome::Due: return "DUE";
    case StrikeOutcome::Sdc: return "SDC";
  }
  return "?";
}

namespace detail {

StrikeOutcome word_outcome(ProtectionKind protection, std::uint64_t data_mask,
                           std::uint32_t check_mask) {
  switch (protection) {
    case ProtectionKind::Immune:
      return StrikeOutcome::Masked;
    case ProtectionKind::None:
      // No check bits: any flip silently corrupts the stored word.
      return (data_mask | check_mask) != 0 ? StrikeOutcome::Sdc
                                           : StrikeOutcome::Masked;
    case ProtectionKind::Parity: {
      const PatternDecode p = ParityCodec::classify_pattern(
          data_mask, static_cast<std::uint8_t>(check_mask));
      if (p.status == DecodeStatus::Detected) return StrikeOutcome::Due;
      return p.data_intact() ? StrikeOutcome::Masked : StrikeOutcome::Sdc;
    }
    case ProtectionKind::SecDed: {
      const PatternDecode p = SecDedCodec::classify_pattern(
          data_mask, static_cast<std::uint8_t>(check_mask));
      switch (p.status) {
        case DecodeStatus::Clean:
          return p.data_intact() ? StrikeOutcome::Masked : StrikeOutcome::Sdc;
        case DecodeStatus::Corrected:
          return p.data_intact() ? StrikeOutcome::Dre : StrikeOutcome::Sdc;
        case DecodeStatus::Detected:
          return StrikeOutcome::Due;
      }
      return StrikeOutcome::Sdc;
    }
  }
  throw InvalidArgument("unknown protection kind");
}

}  // namespace detail

CampaignShardState begin_campaign_shard(std::uint64_t seed) noexcept {
  CampaignShardState state;
  state.rng = Rng(seed);
  return state;
}

// run_campaign_chunk — the batched block engine — lives in
// injector_batch.cpp.

}  // namespace ftspm
