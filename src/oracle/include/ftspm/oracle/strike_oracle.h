// Per-strike reference classifiers of the static campaign.
//
// The batched chunk engine (fault/injector_batch.cpp) classifies whole
// blocks of strikes from run-outcome tables. These functions classify
// one strike at a time, in the documented draw order, and are the
// ground truth the engine is pinned against (tests/fault/
// batch_engine_test.cpp, the CampaignGolden suite) and the baselines
// bench/micro_campaign and bench/perf_harness time it against. They
// live in the ftspm_oracle target, which only tests and benches link.
#pragma once

#include <cstdint>

#include "ftspm/fault/injector.h"
#include "ftspm/mem/geometry.h"
#include "ftspm/util/rng.h"

namespace ftspm {

/// Injects one m-bit adjacent upset starting at `first_bit` of a region
/// and classifies it (ACE filtering excluded — pure code behaviour).
///
/// Classification runs on the codecs' syndrome kernel
/// (classify_pattern): parity and SEC-DED are linear, so the outcome
/// depends only on which bits flipped, never on the stored data. RNG
/// consumption matches classify_strike_oracle draw for draw — one
/// next_u64 per struck codeword — so campaign counters at a fixed seed
/// are bit-identical to the pre-kernel implementation.
StrikeOutcome classify_strike(const InjectionRegion& region,
                              std::uint64_t first_bit, std::uint32_t flips,
                              Rng& rng);

/// classify_strike with caller-owned scratch, so a strike-at-a-time
/// loop creates no per-strike temporaries.
StrikeOutcome classify_strike(const InjectionRegion& region,
                              std::uint64_t first_bit, std::uint32_t flips,
                              Rng& rng, CampaignScratch& scratch);

/// Reference implementation over the full encode/flip/decode oracle
/// (heap-allocating, data-materializing). Kept as the ground truth the
/// syndrome kernel is verified against (tests) and the perf baseline
/// bench/micro_campaign and bench/perf_harness measure the kernel's
/// speedup over. Identical outcomes and RNG consumption.
StrikeOutcome classify_strike_oracle(const InjectionRegion& region,
                                     std::uint64_t first_bit,
                                     std::uint32_t flips, Rng& rng);

/// Locates physical bit `i` of a region under its interleaving: with
/// degree IL, consecutive physical bits rotate across IL codewords, so
/// an adjacent MBU spreads over IL words. This is the aim function
/// classify_strike uses; the recovery reference shares it so its
/// deposited flips land at identical physical locations.
PhysicalBit locate_strike_bit(const InjectionRegion& region, std::uint64_t i);

}  // namespace ftspm
