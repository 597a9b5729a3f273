// ftspm/exec: the campaign runner.
//
// Drives a set of campaign shards (see shard.h) in fixed-size chunks,
// on a ThreadPool or, when only one worker could run, inline on the
// calling thread. It aggregates progress thread-safely, writes JSON
// checkpoints so multi-hour campaigns survive a kill, and owns every
// campaign's telemetry: event-log phase and shard records, trace
// lanes, the campaign.* counters and the per-shard sensitivity grids.
// The runner is campaign-kind agnostic: callers supply a chunk
// function that advances one shard's CampaignShardState, and the
// fault/core layers provide the static, recovery and temporal kinds on
// top. Every kind's serial entry point (run_campaign below,
// run_recovery_campaign, core's run_temporal_campaign) is a one-shard
// run of its sharded counterpart.
//
// Determinism contract: for a fixed (seed, strikes, shard_count) the
// merged counters are bit-identical across any jobs value, any chunk
// size, and any suspend/resume schedule — each shard's sequence is a
// pure function of its derived seed, and the merge is a plain sum in
// shard order. Only shard_count changes results; shard_count == 1
// keeps the root seed.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "ftspm/exec/shard.h"
#include "ftspm/fault/recovery.h"
#include "ftspm/fault/sensitivity.h"
#include "ftspm/fault/strike_model.h"
#include "ftspm/util/error.h"

namespace ftspm::obs {
struct Context;
}  // namespace ftspm::obs

namespace ftspm::exec {

class ThreadPool;

/// Opt-in wall-clock liveness stream for long sharded campaigns. An
/// obs::PeriodicWriter thread samples the runner's thread-safe progress
/// aggregation every `interval_ms` and appends one NDJSON heartbeat
/// record (per-shard strikes/sec, completed/total chunks, pool
/// utilization, ETA) to `out_path`. Heartbeats are nondeterministic by
/// design — they carry wall-clock quantities — so they live in their
/// own file and never appear in golden-compared artefacts. Workers only
/// publish relaxed atomic progress stores; the emitter never blocks
/// shard completion, and emits at least one record (plus a final one at
/// shutdown) even for runs shorter than the interval.
struct HeartbeatConfig {
  /// NDJSON destination; empty = heartbeat disabled.
  std::string out_path;
  /// Milliseconds between beats (clamped to >= 1).
  std::uint32_t interval_ms = 1000;

  bool enabled() const noexcept { return !out_path.empty(); }
};

/// How to execute a sharded campaign. Results depend only on the shard
/// count (via the shard plan); everything else here is scheduling.
struct ExecConfig {
  /// Worker threads; 0 = hardware concurrency.
  std::uint32_t jobs = 1;
  /// Shard count; 0 = the effective jobs value. Pin this explicitly
  /// when comparing runs across different --jobs settings.
  std::uint32_t shards = 1;
  /// Write per-shard progress to this path (empty = no checkpointing).
  std::string checkpoint_path;
  /// Load progress from this path before running; continues writing to
  /// checkpoint_path, or back to this path when checkpoint_path is
  /// empty.
  std::string resume_path;
  /// Per-shard strikes between checkpoint writes.
  std::uint64_t checkpoint_interval = 1u << 20;
  /// Scheduling granule: strikes a worker runs between bookkeeping
  /// (progress, checkpoint, cancel checks). Never affects results.
  std::uint64_t chunk_strikes = 1u << 16;
  /// Live telemetry (off unless out_path is set). Never affects
  /// results or deterministic artefacts.
  HeartbeatConfig heartbeat;
  /// Buckets per region of the run's sensitivity grid (see
  /// fault/sensitivity.h); 0 disables it. Each shard records into its
  /// own copy and the runner merges the copies in shard order, so the
  /// merged grid is jobs-invariant. A resumed run's grid covers only
  /// the strikes executed by this invocation (grids are not
  /// checkpointed). Never affects campaign counters.
  std::uint32_t sensitivity_buckets = 0;
  /// Run on this caller-owned pool instead of constructing a private
  /// one (the serve daemon schedules every admitted request onto one
  /// shared pool). Non-owning; must outlive the run. When set, `jobs`
  /// is ignored — concurrency is the pool's worker count. Never
  /// affects results: counters depend only on (seed, strikes, shards).
  ThreadPool* pool = nullptr;
  /// Cooperative cancellation: workers poll this flag at chunk
  /// granularity and stop scheduling further chunks once it reads
  /// true. A cancelled run writes its final checkpoint and reports
  /// complete() == false; resuming from that checkpoint lands on the
  /// uninterrupted run's counters. Non-owning; may be flipped from any
  /// thread.
  const std::atomic<bool>* cancel = nullptr;
  /// Wall-clock shard attribution: when set, each worker stamps its
  /// shard's task start and finish (ns since the runner launched the
  /// tasks) with relaxed atomic stores, and the coordinator invokes
  /// this callback after the join, once per shard in shard order. The
  /// serve daemon turns these stamps into per-shard child spans of a
  /// request's wall-clock trace. Reporting only — wall quantities
  /// never reach the counters, so enabling it cannot perturb results.
  std::function<void(std::uint32_t shard, std::uint64_t start_ns,
                     std::uint64_t end_ns)>
      shard_span;
  /// Telemetry (obs/context.h): the runner books the campaign.*
  /// counters, the per-shard trace lanes and the phase/shard event-log
  /// records into it, on the calling thread, after the join; workers
  /// never see it. Null = telemetry off. Never affects results.
  obs::Context* obs = nullptr;

  std::uint32_t effective_jobs() const noexcept;
  std::uint32_t effective_shards() const noexcept;
  /// chunk_strikes rounded up to a whole number of campaign batch
  /// blocks (kCampaignBatchWidth) so workers hand the batched engine
  /// full blocks; tiny explicit granules (below one block) are kept
  /// verbatim. Like chunk_strikes itself, never affects results.
  std::uint64_t effective_chunk_strikes() const noexcept;
};

/// What a sharded run produced. `shard_results` holds per-shard
/// partial counters in shard order (partials when halted).
struct ShardedRun {
  CampaignResult merged;
  bool complete = true;
  std::vector<CampaignResult> shard_results;
  /// Shard-order merge of the per-shard sensitivity grids; inactive
  /// unless ExecConfig::sensitivity_buckets was set.
  SensitivityGrid sensitivity;
};

/// Advances `state` by at most `max_strikes` strikes of `shard`,
/// recording each strike into `grid` when it is non-null (the shard's
/// private copy of the run's sensitivity grid). Called concurrently for
/// different shards, never for the same shard; implementations must
/// touch only the shard's own state and shared *read-only* context.
using ShardChunkFn = std::function<void(
    const CampaignShard& shard, CampaignShardState& state,
    std::uint64_t max_strikes, SensitivityGrid* grid)>;

/// Runs the sharded campaign described by (root, exec) with
/// kind-specific chunk execution. `seed_salt` is xored into each
/// shard's seed at generator construction (the recovery and temporal
/// kinds' historical salts); `kind` tags checkpoints so a static
/// checkpoint cannot resume a temporal campaign.
///
/// With no caller-owned pool and min(effective jobs, shards) == 1 the
/// shard tasks run in order on the calling thread; otherwise on a pool.
/// Either way the runner alone writes the telemetry into exec.obs: the
/// phase and shard event-log records, the per-shard trace lanes, and
/// the `campaign.strikes` / `campaign.vulnerable` counters, booked from
/// each shard's counters after the join.
///
/// `grid` (nullable, active) receives the run's strikes: each shard
/// records into a zeroed copy, and the copies are added into `grid` in
/// shard order after the join, so a caller's grid keeps accumulating
/// across runs.
///
/// Root progress callbacks fire with globally aggregated strike
/// counts, monotonically, completion exactly once. Each chunk ends at
/// its shard's next multiple of root.progress_interval, so a one-shard
/// run reports at exactly the multiples of the interval.
ShardedRun run_sharded_campaign(const CampaignConfig& root,
                                const ExecConfig& exec, std::string_view kind,
                                std::uint64_t seed_salt, SensitivityGrid* grid,
                                const ShardChunkFn& run_chunk);

/// The grid a kind's run records into: `caller` when given; else
/// `own`, built over `regions` when exec.sensitivity_buckets asks for
/// one; else none. Passing both a grid and sensitivity_buckets is an
/// error.
template <typename Region>
SensitivityGrid* sensitivity_target(SensitivityGrid* caller,
                                    const ExecConfig& exec,
                                    const std::vector<Region>& regions,
                                    SensitivityGrid& own) {
  if (exec.sensitivity_buckets == 0) return caller;
  FTSPM_REQUIRE(caller == nullptr,
                "pass a sensitivity grid or sensitivity_buckets, not both");
  own = make_sensitivity_grid(regions, exec.sensitivity_buckets);
  return &own;
}

/// The static injector campaign (fault/injector.h), sharded. `grid`
/// (nullable) is the caller's grid, as in run_sharded_campaign; without
/// it, exec.sensitivity_buckets fills ShardedRun::sensitivity.
ShardedRun run_campaign_sharded(const std::vector<InjectionRegion>& regions,
                                const StrikeMultiplicityModel& strikes,
                                const CampaignConfig& config,
                                const ExecConfig& exec,
                                SensitivityGrid* grid = nullptr);

/// What a sharded recovery campaign produced: merged strike and
/// recovery counters plus the per-shard partials, all in shard order.
struct RecoveryShardedRun {
  RecoveryResult merged;
  bool complete = true;
  std::vector<RecoveryResult> shard_results;
  /// Shard-order merge of the per-shard sensitivity grids; inactive
  /// unless ExecConfig::sensitivity_buckets was set.
  SensitivityGrid sensitivity;
};

/// The live-array recovery campaign (fault/recovery.h), sharded. Each
/// shard owns private error planes, so shards stay independent and the
/// merged counters depend only on (seed, strikes, shard_count, policy)
/// — never on --jobs. With `!policy.active()` this delegates to
/// run_campaign_sharded, matching the static campaign bit for bit.
/// Checkpoint/resume is rejected: the error planes are not serialized,
/// so a resumed shard could not reconstruct its state. `grid` as in
/// run_campaign_sharded.
RecoveryShardedRun run_recovery_campaign_sharded(
    const std::vector<RecoveryRegion>& regions,
    const StrikeMultiplicityModel& strikes, const CampaignConfig& config,
    const RecoveryPolicy& policy, const ExecConfig& exec,
    SensitivityGrid* grid = nullptr);

}  // namespace ftspm::exec

namespace ftspm {

/// Runs a campaign of uniformly-aimed strikes over the given surfaces
/// (weighted by physical bits). Deterministic for a fixed config. A
/// one-shard run of exec::run_campaign_sharded on the calling thread.
/// `grid` (nullable) accumulates every strike's (region, origin bit,
/// final outcome) — see fault/sensitivity.h; it never affects results.
/// `obs` (nullable) is the runner's ExecConfig::obs.
CampaignResult run_campaign(const std::vector<InjectionRegion>& regions,
                            const StrikeMultiplicityModel& strikes,
                            const CampaignConfig& config = {},
                            SensitivityGrid* grid = nullptr,
                            obs::Context* obs = nullptr);

/// Recovery campaign (fault/recovery.h) as a one-shard run of
/// exec::run_recovery_campaign_sharded on the calling thread. With
/// `!policy.active()` this is exactly run_campaign; otherwise the
/// live-array loop runs under `config.seed ^ LiveArrayCampaign::
/// kSeedSalt`. `grid` and `obs` as in run_campaign.
RecoveryResult run_recovery_campaign(const std::vector<RecoveryRegion>& regions,
                                     const StrikeMultiplicityModel& strikes,
                                     const CampaignConfig& config,
                                     const RecoveryPolicy& policy,
                                     SensitivityGrid* grid = nullptr,
                                     obs::Context* obs = nullptr);

}  // namespace ftspm
