// ftspm/exec: deterministic campaign sharding and checkpoints.
//
// A root CampaignConfig splits into per-shard configs whose strike
// counts partition the root total and whose seeds come from
// Rng::derive_stream_seed(root_seed, shard_index). Because each shard
// is a pure function of its own config, the merged counters for a
// fixed (seed, strikes, shard_count) are bit-identical regardless of
// worker-thread count or shard completion order — and a one-shard plan
// keeps the root seed, reproducing today's serial results exactly.
//
// Checkpoints serialize each shard's progress (strikes done, partial
// counters, RNG state words) as one JSON document via ftspm/util/json.
// 64-bit quantities that can exceed a double's 53-bit mantissa (seeds,
// RNG words) travel as "0x..." hex strings; counters, which stay far
// below 2^53 in any feasible campaign, travel as plain numbers.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ftspm/fault/injector.h"

namespace ftspm::exec {

/// One slice of a root campaign: the shard's index and its derived
/// config (sliced strikes, stream seed, progress callback cleared —
/// the parallel runner owns progress reporting).
struct CampaignShard {
  std::uint32_t index = 0;
  CampaignConfig config;
};

/// Splits `root` into `shard_count` shards. Strikes divide as evenly
/// as possible (the first `strikes % shard_count` shards get one
/// extra); a single shard keeps the root seed verbatim, multi-shard
/// plans derive seed_i = Rng::derive_stream_seed(root.seed, i).
std::vector<CampaignShard> make_shard_plan(const CampaignConfig& root,
                                           std::uint32_t shard_count);

/// Sums per-shard counters. Associative and order-independent, but
/// callers pass shards in index order by convention.
CampaignResult merge_shard_results(const std::vector<CampaignResult>& parts);

/// Serialized progress of one shard.
struct ShardCheckpoint {
  std::uint32_t index = 0;
  std::uint64_t strikes = 0;  ///< The shard's total strike budget.
  std::uint64_t done = 0;
  CampaignResult partial;  ///< Counters over the `done` strikes.
  std::array<std::uint64_t, 4> rng_state{};
};

/// A whole campaign's resume point. The root fields identify which
/// campaign the shard states belong to; resuming validates them
/// against the caller's config before trusting the states.
struct CampaignCheckpoint {
  std::uint64_t root_seed = 0;
  std::uint64_t strikes = 0;  ///< Root total.
  std::uint32_t shard_count = 0;
  std::uint64_t seed_salt = 0;  ///< Kind-specific xor applied at seeding.
  std::string kind;             ///< "static", "temporal", ...
  std::vector<ShardCheckpoint> shards;

  bool complete() const noexcept;

  /// Throws ftspm::Error unless this checkpoint describes exactly the
  /// campaign (root, shard_count, salt, kind), with each shard's budget
  /// its share of make_shard_plan — a checkpoint resumed under different
  /// parameters would silently produce wrong numbers.
  void validate_against(const CampaignConfig& root, std::uint32_t shards,
                        std::uint64_t salt, std::string_view kind) const;
};

/// Builds a shard's resumable state from its checkpoint.
CampaignShardState restore_shard_state(const ShardCheckpoint& cp);
/// Snapshots a shard's in-flight state for checkpointing.
ShardCheckpoint snapshot_shard_state(std::uint32_t index,
                                     std::uint64_t shard_strikes,
                                     const CampaignShardState& state);

std::string checkpoint_to_json(const CampaignCheckpoint& cp);
CampaignCheckpoint checkpoint_from_json(std::string_view text);

/// File round trip. store_checkpoint writes to `path + ".tmp"` then
/// renames, so a kill mid-write never corrupts an existing checkpoint.
void store_checkpoint(const CampaignCheckpoint& cp, const std::string& path);
CampaignCheckpoint load_checkpoint(const std::string& path);

}  // namespace ftspm::exec
