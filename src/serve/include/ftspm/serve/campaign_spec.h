// The campaign request spec shared by `ftspm_tool campaign`, the serve
// daemon, its client library, and the load injector.
//
// The CLI fills a CampaignSpec from its flags and the daemon decodes
// one off the wire; both run it through run_campaign_spec() (the
// sharded recovery runner, `exec::run_recovery_campaign_sharded`) and
// build their ledger record with campaign_spec_record(). One code path
// is what makes the served-vs-one-shot determinism contract hold: same
// spec + same seed => bit-identical counters and an equivalent record,
// whether the run came through a socket or argv.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "ftspm/exec/parallel_campaign.h"
#include "ftspm/fault/injector.h"
#include "ftspm/fault/recovery.h"
#include "ftspm/fault/sensitivity.h"
#include "ftspm/obs/ledger.h"
#include "ftspm/util/json.h"

namespace ftspm::serve {

/// Upper bounds on the spec's count fields. spec_from_json and the
/// `ftspm_tool campaign` flag parser both apply them, so the wire and
/// argv accept the same counts; validate_spec checks the lower bounds.
/// kMaxSpecCount (strikes, seed, scrub interval, heartbeat strikes)
/// is 2^53, the largest range a JSON number carries exactly.
inline constexpr std::uint64_t kMaxSpecCount = std::uint64_t{1} << 53;
inline constexpr std::uint64_t kMaxSpecSize = std::uint64_t{1} << 40;
inline constexpr std::uint64_t kMaxSpecInterleave = std::uint64_t{1} << 16;
inline constexpr std::uint64_t kMaxSpecShards = 4096;
inline constexpr std::uint64_t kMaxSpecRefetchWords = std::uint64_t{1} << 32;
/// Largest surface of a recovery spec (recover or scrub_interval set):
/// each shard in flight keeps error planes of about 10 bytes per 8-byte
/// word, so 2^24 bytes cost about 21 MB a shard where kMaxSpecSize would
/// cost 1.25 TiB. validate_spec applies it.
inline constexpr std::uint64_t kMaxRecoverySpecSize = std::uint64_t{1} << 24;
/// Most heartbeats a run reports, whatever its heartbeat_strikes: each
/// one ends a runner chunk, so a tiny interval must not turn a run
/// into one-strike chunks and one frame per strike.
inline constexpr std::uint64_t kMaxSpecHeartbeats = 1000;

/// One campaign request. Field names and defaults match the
/// `ftspm_tool campaign` flags (plus an explicit seed, which the CLI
/// pins to the library default).
struct CampaignSpec {
  std::string protection = "secded";  ///< parity|secded|none
  std::uint64_t strikes = 100'000;
  std::uint64_t seed = CampaignConfig{}.seed;
  std::uint64_t size = 8192;          ///< Surface payload bytes.
  std::uint32_t interleave = 1;
  double node = 40.0;                 ///< Process node (nm).
  double occupancy = 1.0;
  std::uint32_t shards = 1;           ///< Determinism knob; >= 1.
  bool recover = false;
  std::uint64_t scrub_interval = 0;
  double dirty_fraction = 0.25;
  std::uint64_t refetch_words = 64;
  /// Strikes between streamed heartbeat frames (0 = none), raised to
  /// strikes / kMaxSpecHeartbeats when smaller. Reporting only: never
  /// touches the RNG or the counters.
  std::uint64_t heartbeat_strikes = 0;
};

/// Throws InvalidArgument when a field is out of range (unknown
/// protection, zero strikes/shards, a size that is not a whole number
/// of 8-byte words, a recovery size above kMaxRecoverySpecSize,
/// occupancy outside [0,1], ...).
void validate_spec(const CampaignSpec& spec);

/// Decodes the "spec" object of a campaign request. Unknown keys are
/// rejected (a typoed field must not silently fall back to a default);
/// missing keys keep their defaults. Throws InvalidArgument.
CampaignSpec spec_from_json(const JsonValue& value);

/// Encodes `spec` as the wire "spec" object (round-trips through
/// spec_from_json).
std::string spec_to_json(const CampaignSpec& spec);

/// How to execute a spec run: the scheduling half of exec::ExecConfig
/// (pool or jobs, cancel flag, shard spans, checkpoint/resume,
/// heartbeat, sensitivity buckets) plus the progress sink. The spec
/// owns the shard count: run_campaign_spec overwrites `shards` with
/// spec.shards. The defaults run the spec standalone on one worker.
struct CampaignRunHooks : exec::ExecConfig {
  /// Invoked every spec.heartbeat_strikes strikes (aggregated across
  /// shards) and once at completion with (done, total). Must not throw.
  std::function<void(std::uint64_t, std::uint64_t)> progress;
};

/// What one spec run produced.
struct CampaignOutcome {
  RecoveryResult result;
  /// True when the spec engaged the recovery pipeline (recover or
  /// scrubbing); selects the recovery block of the ledger record.
  bool recovery_active = false;
  /// False when the run was cancelled before finishing its strikes.
  bool complete = true;
  std::uint32_t used_jobs = 1;
  std::uint32_t used_shards = 1;
  double wall_ms = 0.0;
  double strikes_per_sec = 0.0;
  /// Shard-order merge of the per-shard sensitivity grids; inactive
  /// unless hooks.sensitivity_buckets was set.
  SensitivityGrid sensitivity;
};

/// Runs the spec. Counters depend only on (seed, strikes, shards,
/// protection/geometry/policy) — never on the pool, jobs, or hooks.
CampaignOutcome run_campaign_spec(const CampaignSpec& spec,
                                  const CampaignRunHooks& hooks = {});

/// The outcome as a ledger record (id left empty for the appender);
/// the CLI and the daemon both record their runs through this.
obs::LedgerRecord campaign_spec_record(const CampaignSpec& spec,
                                       const CampaignOutcome& outcome);

}  // namespace ftspm::serve
