#include "ftspm/exec/parallel_campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "ftspm/exec/thread_pool.h"
#include "ftspm/obs/context.h"
#include "ftspm/obs/periodic_writer.h"
#include "ftspm/util/error.h"
#include "ftspm/util/json.h"

namespace ftspm::exec {

std::uint32_t ExecConfig::effective_jobs() const noexcept {
  return jobs == 0 ? default_jobs() : jobs;
}

std::uint32_t ExecConfig::effective_shards() const noexcept {
  return shards == 0 ? std::max<std::uint32_t>(effective_jobs(), 1) : shards;
}

std::uint64_t ExecConfig::effective_chunk_strikes() const noexcept {
  if (chunk_strikes < kCampaignBatchWidth) return chunk_strikes;
  const std::uint64_t rem = chunk_strikes % kCampaignBatchWidth;
  return rem == 0 ? chunk_strikes : chunk_strikes + (kCampaignBatchWidth - rem);
}

namespace {

/// Serializes the root progress callback across workers: counts are
/// globally aggregated, reported monotonically, and the completion
/// call fires exactly once.
class ProgressAggregator {
 public:
  ProgressAggregator(const CampaignConfig& root, std::uint64_t already_done)
      : root_(root), done_(already_done), last_reported_(already_done) {}

  void add(std::uint64_t strikes) {
    if (strikes == 0) return;
    const std::uint64_t done =
        done_.fetch_add(strikes, std::memory_order_relaxed) + strikes;
    if (root_.progress_interval == 0 || !root_.progress) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    if (done >= root_.strikes) return;  // completion is the coordinator's
    // Workers can reach the lock out of order: a count at or below the
    // last one reported is stale, and reporting it would go backwards.
    if (done <= last_reported_ ||
        done - last_reported_ < root_.progress_interval)
      return;
    last_reported_ = done;
    root_.progress(done, root_.strikes);
  }

  std::uint64_t done() const noexcept {
    return done_.load(std::memory_order_relaxed);
  }

  /// Called once by the coordinator after the pool joined.
  void finish(bool complete) {
    if (!complete || root_.progress_interval == 0 || !root_.progress) return;
    root_.progress(root_.strikes, root_.strikes);
  }

 private:
  const CampaignConfig& root_;
  std::atomic<std::uint64_t> done_;
  std::mutex mutex_;
  std::uint64_t last_reported_;
};

/// Guards the shared checkpoint document and its file writes.
class CheckpointWriter {
 public:
  CheckpointWriter(CampaignCheckpoint cp, std::string path)
      : cp_(std::move(cp)), path_(std::move(path)),
        writes_(cp_.shards.size(), 0) {}

  bool active() const noexcept { return !path_.empty(); }

  void update(std::uint32_t shard_index, std::uint64_t shard_strikes,
              const CampaignShardState& state, bool flush) {
    if (!active()) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    cp_.shards[shard_index] =
        snapshot_shard_state(shard_index, shard_strikes, state);
    if (flush) {
      store_checkpoint(cp_, path_);
      ++writes_[shard_index];
    }
  }

  void flush() {
    if (!active()) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    store_checkpoint(cp_, path_);
  }

  /// Checkpoint writes triggered by `shard_index`. Deterministic for a
  /// fixed chunk/checkpoint-interval schedule; read after the join.
  std::uint64_t writes(std::uint32_t shard_index) const {
    return writes_[shard_index];
  }

 private:
  CampaignCheckpoint cp_;
  std::string path_;
  std::mutex mutex_;
  std::vector<std::uint64_t> writes_;
};

/// The heartbeat record builder (see HeartbeatConfig) for an
/// obs::PeriodicWriter. Reads the per-shard progress slots the workers
/// publish with relaxed stores, so it is entirely off the hot path:
/// workers never wait on it. The returned function keeps its own rate
/// state and runs only on the writer thread.
obs::PeriodicWriter::LineFn heartbeat_line(
    const HeartbeatConfig& config, const std::vector<CampaignShard>& plan,
    std::uint64_t already_done, std::uint64_t total_strikes,
    std::uint64_t chunks_total, const std::atomic<std::uint64_t>* shard_done,
    const std::atomic<std::uint64_t>& chunks_done, const ThreadPool* pool) {
  using Clock = std::chrono::steady_clock;
  std::vector<std::uint64_t> prev_done(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i)
    prev_done[i] = shard_done[i].load(std::memory_order_relaxed);
  const Clock::time_point start = Clock::now();
  return [&config, &plan, already_done, total_strikes, chunks_total,
          shard_done, &chunks_done, pool, prev_done = std::move(prev_done),
          start, prev_time = start](bool final) mutable {
    const Clock::time_point now = Clock::now();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(now - start).count();
    const double delta_s =
        std::chrono::duration<double>(now - prev_time).count();
    std::uint64_t done = 0;
    JsonWriter w;
    w.begin_object()
        .field("schema", static_cast<std::uint64_t>(1))
        .field("event", "heartbeat")
        .field("final", final)
        .field("wall_ms", wall_ms);
    w.begin_array("shards");
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const std::uint64_t d = shard_done[i].load(std::memory_order_relaxed);
      done += d;
      const double rate =
          delta_s > 0.0
              ? static_cast<double>(d - prev_done[i]) / delta_s
              : 0.0;
      w.begin_object()
          .field("shard", static_cast<std::uint64_t>(i))
          .field("done", d)
          .field("total", plan[i].config.strikes)
          .field("strikes_per_sec", rate)
          .end_object();
      prev_done[i] = d;
    }
    w.end_array();
    const double elapsed_s = wall_ms / 1000.0;
    const double rate =
        elapsed_s > 0.0
            ? static_cast<double>(done - already_done) / elapsed_s
            : 0.0;
    const double eta_s =
        rate > 0.0 ? static_cast<double>(total_strikes - done) / rate : 0.0;
    // An inline run (no pool) keeps its one thread busy throughout.
    const std::uint32_t workers = pool != nullptr ? pool->size() : 1;
    double utilization = 1.0;
    if (pool != nullptr) {
      const double capacity_ns =
          elapsed_s * 1e9 * static_cast<double>(workers);
      utilization =
          capacity_ns > 0.0
              ? std::min(static_cast<double>(pool->total_busy_ns()) /
                             capacity_ns,
                         1.0)
              : 0.0;
    }
    w.field("done", done)
        .field("total", total_strikes)
        .field("strikes_per_sec", rate)
        .field("eta_s", eta_s)
        .field("chunks_done",
               chunks_done.load(std::memory_order_relaxed))
        .field("chunks_total", chunks_total)
        .field("jobs", static_cast<std::uint64_t>(workers))
        .field("pool_utilization", utilization)
        .end_object();
    prev_time = now;

    if (config.stderr_line) {
      const double pct =
          total_strikes != 0
              ? 100.0 * static_cast<double>(done) /
                    static_cast<double>(total_strikes)
              : 100.0;
      std::fprintf(stderr,
                   "heartbeat: %5.1f%% (%llu/%llu strikes) %.0f strikes/s "
                   "eta %.0fs pool %.0f%%\n",
                   pct, static_cast<unsigned long long>(done),
                   static_cast<unsigned long long>(total_strikes), rate,
                   eta_s, utilization * 100.0);
    }
    return w.str();
  };
}

/// Deterministic post-run observability: the campaign counters this
/// invocation added, pool-utilization wall timers, and per-shard trace
/// lanes. Emitted by the coordinator after the join, in shard order,
/// so telemetry never perturbs (and never races with) the campaign,
/// and the snapshot is the same for any --jobs.
void emit_observability(const std::vector<CampaignShardState>& states,
                        const std::vector<CampaignResult>& initial,
                        const std::vector<std::uint64_t>& worker_busy_ns,
                        obs::Context* obs) {
  if (obs == nullptr) return;
  obs::Registry& reg = obs->registry;
  std::uint64_t strikes = 0;
  std::uint64_t vulnerable = 0;
  for (std::size_t i = 0; i < states.size(); ++i) {
    const CampaignResult& now = states[i].partial;
    strikes += now.strikes - initial[i].strikes;
    vulnerable += (now.due + now.sdc) - (initial[i].due + initial[i].sdc);
  }
  if (strikes != 0) {
    reg.counter("campaign.strikes").add(strikes);
    reg.counter("campaign.vulnerable").add(vulnerable);
  }
  // Wall-clock-only pool telemetry; excluded from default snapshots,
  // so deterministic dumps stay jobs-invariant.
  for (std::size_t w = 0; w < worker_busy_ns.size(); ++w)
    reg.timer("exec.worker" + std::to_string(w) + ".busy")
        .record_ns(worker_busy_ns[w]);

  obs::TraceEventSink* trace = obs->trace;
  if (trace == nullptr) return;
  for (std::size_t i = 0; i < states.size(); ++i) {
    const obs::TraceEventSink::LaneId lane =
        trace->lane("exec", "shard" + std::to_string(i));
    const CampaignResult& p = states[i].partial;
    trace->complete(lane, "shard", 0, states[i].done,
                    {obs::TraceArg::num("masked", p.masked),
                     obs::TraceArg::num("dre", p.dre),
                     obs::TraceArg::num("due", p.due),
                     obs::TraceArg::num("sdc", p.sdc)});
  }
}

}  // namespace

ShardedRun run_sharded_campaign(const CampaignConfig& root,
                                const ExecConfig& exec, std::string_view kind,
                                std::uint64_t seed_salt, SensitivityGrid* grid,
                                const ShardChunkFn& run_chunk) {
  FTSPM_REQUIRE(static_cast<bool>(run_chunk), "a chunk runner is required");
  FTSPM_REQUIRE(exec.chunk_strikes >= 1, "chunk_strikes must be >= 1");
  FTSPM_REQUIRE(grid == nullptr || grid->active(),
                "the sensitivity grid must be active");
  const std::uint32_t jobs = exec.effective_jobs();
  const std::uint32_t shard_count = exec.effective_shards();
  const std::vector<CampaignShard> plan = make_shard_plan(root, shard_count);

  // Fresh per-shard states, or the checkpointed ones when resuming.
  // Each state carries its shard's CampaignScratch: one worker owns one
  // shard for the whole run, so the hot-loop scratch (hit buffer,
  // weight table) is reused across every chunk of that shard without
  // sharing or per-chunk allocation. Checkpoints neither save nor
  // restore scratch — it never affects results.
  std::vector<CampaignShardState> states;
  states.reserve(shard_count);
  CampaignCheckpoint cp;
  cp.root_seed = root.seed;
  cp.strikes = root.strikes;
  cp.shard_count = shard_count;
  cp.seed_salt = seed_salt;
  cp.kind = std::string(kind);
  if (!exec.resume_path.empty()) {
    cp = load_checkpoint(exec.resume_path);
    cp.validate_against(root, shard_count, seed_salt, kind);
    for (const ShardCheckpoint& s : cp.shards)
      states.push_back(restore_shard_state(s));
  } else {
    for (const CampaignShard& shard : plan) {
      states.push_back(begin_campaign_shard(shard.config.seed ^ seed_salt));
      cp.shards.push_back(
          snapshot_shard_state(shard.index, shard.config.strikes,
                               states.back()));
    }
  }

  // What each shard held before this invocation: the counters and
  // telemetry cover only the strikes run here.
  std::vector<std::uint64_t> initial_done(shard_count);
  std::vector<CampaignResult> initial(shard_count);
  std::uint64_t already_done = 0;
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    initial_done[i] = states[i].done;
    initial[i] = states[i].partial;
    already_done += states[i].done;
  }

  const std::string write_path = exec.checkpoint_path.empty()
                                     ? exec.resume_path
                                     : exec.checkpoint_path;
  CheckpointWriter checkpoints(std::move(cp), write_path);
  ProgressAggregator progress(root, already_done);
  std::atomic<bool> halted{false};

  // Simulated-time lifecycle records; coordinator-only, so the log for
  // a fixed (seed, strikes, shard_count, chunk schedule) is identical
  // regardless of --jobs.
  obs::EventLog* events = exec.obs != nullptr ? exec.obs->events : nullptr;
  if (events != nullptr) {
    events->emit("phase_start", already_done,
                 {obs::TraceArg::str("kind", kind),
                  obs::TraceArg::num("shards",
                                     static_cast<std::uint64_t>(shard_count)),
                  obs::TraceArg::num("strikes", root.strikes),
                  obs::TraceArg::num("resumed_strikes", already_done)});
    for (std::uint32_t i = 0; i < shard_count; ++i)
      events->emit("shard_start", initial_done[i],
                   {obs::TraceArg::num("shard", static_cast<std::uint64_t>(i)),
                    obs::TraceArg::num("strikes", plan[i].config.strikes),
                    obs::TraceArg::num("done", initial_done[i]),
                    obs::TraceArg::num("seed", plan[i].config.seed)});
  }

  // Per-shard sensitivity grids: zeroed copies of the caller's grid,
  // each touched only by its shard's worker, added into `grid` in shard
  // order after the join.
  std::vector<SensitivityGrid> grids;
  if (grid != nullptr)
    grids.assign(shard_count,
                 SensitivityGrid(grid->regions(), grid->buckets()));

  // Chunk schedule: at most one granule, cut at the shard's next
  // multiple of the progress interval so a report can land exactly
  // there. Chunking never affects results.
  const std::uint64_t granule = exec.effective_chunk_strikes();
  const std::uint64_t cut = root.progress ? root.progress_interval : 0;
  const auto chunk_end = [granule, cut](std::uint64_t done,
                                        std::uint64_t total) {
    std::uint64_t step = std::min(granule, total - done);
    if (cut != 0) step = std::min(step, cut - done % cut);
    return done + step;
  };
  // How many chunks chunk_end makes of [done, total): whole granules
  // between consecutive cuts, in closed form.
  const auto chunk_count = [granule, cut](std::uint64_t done,
                                          std::uint64_t total) {
    const auto granules = [granule](std::uint64_t n) {
      return n / granule + (n % granule != 0 ? 1 : 0);
    };
    if (cut == 0 || total - done <= cut - done % cut)
      return granules(total - done);
    const std::uint64_t first = cut - done % cut;
    const std::uint64_t rest = total - done - first;
    return granules(first) + rest / cut * granules(cut) +
           granules(rest % cut);
  };

  // Heartbeat feed: relaxed per-shard progress slots plus a global
  // chunk counter. Cheap enough to maintain unconditionally.
  const std::unique_ptr<std::atomic<std::uint64_t>[]> shard_done(
      new std::atomic<std::uint64_t>[shard_count]);
  std::atomic<std::uint64_t> chunks_done{0};
  std::uint64_t chunks_total = 0;
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    shard_done[i].store(initial_done[i], std::memory_order_relaxed);
    chunks_total += chunk_count(initial_done[i], plan[i].config.strikes);
  }

  // Wall-clock shard attribution (ExecConfig::shard_span): each worker
  // stamps its shard's task start and finish against a local epoch with
  // relaxed stores; the coordinator reads the stamps after the join.
  // Wall quantities only — never consulted by the counters.
  const auto span_epoch = std::chrono::steady_clock::now();
  const auto span_ns = [span_epoch] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - span_epoch)
            .count());
  };
  std::unique_ptr<std::atomic<std::uint64_t>[]> span_start;
  std::unique_ptr<std::atomic<std::uint64_t>[]> span_end;
  if (exec.shard_span) {
    span_start.reset(new std::atomic<std::uint64_t>[shard_count]);
    span_end.reset(new std::atomic<std::uint64_t>[shard_count]);
    for (std::uint32_t i = 0; i < shard_count; ++i) {
      span_start[i].store(0, std::memory_order_relaxed);
      span_end[i].store(0, std::memory_order_relaxed);
    }
  }

  // Where the shard tasks run. A caller-owned pool (ExecConfig::pool)
  // lets a long-running service amortize worker threads across
  // requests. Otherwise, when only one worker could run at a time, the
  // tasks run in order on the calling thread — no pool to spawn and
  // join; else the run owns a private pool sized by effective_jobs().
  // Either way the counters are identical — concurrency never reaches
  // the result.
  std::unique_ptr<ThreadPool> owned_pool;
  if (exec.pool == nullptr && std::min(jobs, shard_count) > 1)
    owned_pool = std::make_unique<ThreadPool>(jobs);
  ThreadPool* pool = exec.pool != nullptr ? exec.pool : owned_pool.get();

  std::vector<std::function<void()>> tasks;
  tasks.reserve(shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    tasks.push_back([&, i] {
      const CampaignShard& shard = plan[i];
      CampaignShardState& state = states[i];
      SensitivityGrid* shard_grid = grids.empty() ? nullptr : &grids[i];
      if (span_start != nullptr)
        span_start[i].store(span_ns(), std::memory_order_relaxed);
      std::uint64_t since_checkpoint = 0;
      while (state.done < shard.config.strikes) {
        if (exec.cancel != nullptr &&
            exec.cancel->load(std::memory_order_relaxed)) {
          halted.store(true, std::memory_order_relaxed);
          break;
        }
        const std::uint64_t before = state.done;
        run_chunk(shard, state,
                  chunk_end(before, shard.config.strikes) - before,
                  shard_grid);
        FTSPM_CHECK(state.done > before,
                    "campaign chunk runner made no progress");
        const std::uint64_t advanced = state.done - before;
        progress.add(advanced);
        shard_done[i].store(state.done, std::memory_order_relaxed);
        chunks_done.fetch_add(1, std::memory_order_relaxed);
        since_checkpoint += advanced;
        if (since_checkpoint >= exec.checkpoint_interval ||
            state.done == shard.config.strikes) {
          checkpoints.update(i, shard.config.strikes, state,
                             /*flush=*/checkpoints.active());
          since_checkpoint = 0;
        }
      }
      if (span_end != nullptr)
        span_end[i].store(span_ns(), std::memory_order_relaxed);
    });
  }
  std::vector<std::uint64_t> worker_busy_ns;
  {
    // The writer joins (and writes its final beat) before results are
    // merged, even when a worker throws.
    std::optional<obs::PeriodicWriter> heartbeat;
    if (exec.heartbeat.enabled())
      heartbeat.emplace("heartbeat", exec.heartbeat.out_path,
                        exec.heartbeat.interval_ms,
                        heartbeat_line(exec.heartbeat, plan, already_done,
                                       root.strikes, chunks_total,
                                       shard_done.get(), chunks_done, pool));
    if (pool != nullptr) {
      pool->run_all(std::move(tasks));
      for (std::uint32_t w = 0; w < pool->size(); ++w)
        worker_busy_ns.push_back(pool->worker_busy_ns(w));
    } else {
      const std::uint64_t start = span_ns();
      for (const std::function<void()>& task : tasks) task();
      worker_busy_ns.push_back(span_ns() - start);
    }
  }

  if (exec.shard_span)
    for (std::uint32_t i = 0; i < shard_count; ++i)
      exec.shard_span(i, span_start[i].load(std::memory_order_relaxed),
                      span_end[i].load(std::memory_order_relaxed));

  ShardedRun run;
  run.shard_results.reserve(shard_count);
  for (const CampaignShardState& state : states)
    run.shard_results.push_back(state.partial);
  run.merged = merge_shard_results(run.shard_results);
  run.complete = true;
  for (std::uint32_t i = 0; i < shard_count; ++i)
    if (states[i].done < plan[i].config.strikes) run.complete = false;
  for (const SensitivityGrid& shard_grid : grids) grid->merge_from(shard_grid);

  // One final write so a halted (or freshly finished) run leaves a
  // consistent resume point on disk.
  for (std::uint32_t i = 0; i < shard_count; ++i)
    checkpoints.update(i, plan[i].config.strikes, states[i], /*flush=*/false);
  checkpoints.flush();

  progress.finish(run.complete);
  emit_observability(states, initial, worker_busy_ns, exec.obs);
  if (events != nullptr) {
    std::uint64_t total_done = 0;
    for (std::uint32_t i = 0; i < shard_count; ++i) {
      const CampaignResult& p = states[i].partial;
      total_done += states[i].done;
      events->emit("shard_end", states[i].done,
                   {obs::TraceArg::num("shard", static_cast<std::uint64_t>(i)),
                    obs::TraceArg::num("strikes", states[i].done),
                    obs::TraceArg::num("masked", p.masked),
                    obs::TraceArg::num("dre", p.dre),
                    obs::TraceArg::num("due", p.due),
                    obs::TraceArg::num("sdc", p.sdc)});
      if (checkpoints.active())
        events->emit("checkpoint", states[i].done,
                     {obs::TraceArg::num("shard",
                                         static_cast<std::uint64_t>(i)),
                      obs::TraceArg::num("writes", checkpoints.writes(i))});
    }
    const char* complete = run.complete ? "true" : "false";
    events->emit("phase_end", total_done,
                 {obs::TraceArg::str("kind", kind),
                  obs::TraceArg{"complete", complete},
                  obs::TraceArg::num("strikes", run.merged.strikes),
                  obs::TraceArg::num("masked", run.merged.masked),
                  obs::TraceArg::num("dre", run.merged.dre),
                  obs::TraceArg::num("due", run.merged.due),
                  obs::TraceArg::num("sdc", run.merged.sdc)});
  }
  return run;
}

ShardedRun run_campaign_sharded(const std::vector<InjectionRegion>& regions,
                                const StrikeMultiplicityModel& strikes,
                                const CampaignConfig& config,
                                const ExecConfig& exec,
                                SensitivityGrid* grid) {
  SensitivityGrid own;
  ShardedRun run = run_sharded_campaign(
      config, exec, "static", /*seed_salt=*/0,
      sensitivity_target(grid, exec, regions, own),
      [&](const CampaignShard& shard, CampaignShardState& state,
          std::uint64_t max_strikes, SensitivityGrid* shard_grid) {
        run_campaign_chunk(regions, strikes, shard.config, state, max_strikes,
                           shard_grid);
      });
  run.sensitivity = std::move(own);
  return run;
}

namespace {

/// Deterministic post-run observability for the recovery side of a
/// sharded campaign; mirrors emit_observability's contract (coordinator
/// only, after the join, shard order).
void emit_recovery_observability(const RecoveryShardedRun& run,
                                 obs::Context* obs) {
  if (obs == nullptr) return;
  obs::Registry& reg = obs->registry;
  const RecoveryCounters& m = run.merged.recovery;
  reg.counter("recovery.demand_reads").add(m.demand_reads);
  reg.counter("recovery.corrections").add(m.corrections);
  reg.counter("recovery.scrub_passes").add(m.scrub_passes);
  reg.counter("recovery.scrub_words").add(m.scrub_words);
  reg.counter("recovery.scrub_corrections").add(m.scrub_corrections);
  reg.counter("recovery.refetches").add(m.refetches);
  reg.counter("recovery.unrecoverable").add(m.unrecoverable);
  reg.counter("recovery.sdc_reads").add(m.sdc_reads);
  reg.counter("recovery.cycles").add(m.recovery_cycles);
  reg.gauge("recovery.energy_pj").set(m.recovery_energy_pj);

  obs::TraceEventSink* trace = obs->trace;
  if (trace == nullptr) return;
  for (std::size_t i = 0; i < run.shard_results.size(); ++i) {
    const obs::TraceEventSink::LaneId lane =
        trace->lane("recovery", "shard" + std::to_string(i));
    const RecoveryCounters& c = run.shard_results[i].recovery;
    trace->complete(lane, "recovery", 0, run.shard_results[i].strikes.strikes,
                    {obs::TraceArg::num("corrections", c.corrections),
                     obs::TraceArg::num("scrub_corrections",
                                        c.scrub_corrections),
                     obs::TraceArg::num("refetches", c.refetches),
                     obs::TraceArg::num("unrecoverable", c.unrecoverable)});
  }
}

}  // namespace

RecoveryShardedRun run_recovery_campaign_sharded(
    const std::vector<RecoveryRegion>& regions,
    const StrikeMultiplicityModel& strikes, const CampaignConfig& config,
    const RecoveryPolicy& policy, const ExecConfig& exec,
    SensitivityGrid* grid) {
  RecoveryShardedRun out;
  if (!policy.active()) {
    // Static semantics: reuse the static sharded path (including its
    // checkpoint support) and report empty recovery counters.
    std::vector<InjectionRegion> inject;
    inject.reserve(regions.size());
    for (const RecoveryRegion& r : regions) inject.push_back(r.inject);
    ShardedRun run = run_campaign_sharded(inject, strikes, config, exec, grid);
    out.complete = run.complete;
    out.merged = RecoveryResult{run.merged, {}};
    out.shard_results.reserve(run.shard_results.size());
    for (const CampaignResult& shard : run.shard_results)
      out.shard_results.push_back(RecoveryResult{shard, {}});
    out.sensitivity = std::move(run.sensitivity);
    return out;
  }
  FTSPM_REQUIRE(exec.checkpoint_path.empty() && exec.resume_path.empty(),
                "recovery campaigns do not support checkpoint/resume: the "
                "live array images are not serialized");

  const LiveArrayCampaign campaign(regions, strikes, policy);
  // The runner owns the core shard states; the image/counter sides live
  // here, indexed by shard, touched only by that shard's worker.
  std::vector<RecoveryShardSide> sides(exec.effective_shards());
  const ShardedRun run = run_sharded_campaign(
      config, exec, "recovery", LiveArrayCampaign::kSeedSalt,
      sensitivity_target(grid, exec, regions, out.sensitivity),
      [&](const CampaignShard& shard, CampaignShardState& state,
          std::uint64_t max_strikes, SensitivityGrid* shard_grid) {
        RecoveryShardSide& side = sides[shard.index];
        campaign.ensure_shard_images(side, shard.config.seed);
        campaign.run_chunk(shard.config, state, side, max_strikes,
                           shard_grid);
      });

  out.complete = run.complete;
  out.shard_results.reserve(run.shard_results.size());
  for (std::size_t i = 0; i < run.shard_results.size(); ++i)
    out.shard_results.push_back(
        RecoveryResult{run.shard_results[i], sides[i].counters});
  out.merged.strikes = run.merged;
  // Shard-order merge: even the floating-point energy sum is
  // reproducible across any jobs value.
  for (const RecoveryResult& shard : out.shard_results)
    out.merged.recovery.add(shard.recovery);
  emit_recovery_observability(out, exec.obs);
  return out;
}

}  // namespace ftspm::exec

namespace ftspm {

CampaignResult run_campaign(const std::vector<InjectionRegion>& regions,
                            const StrikeMultiplicityModel& strikes,
                            const CampaignConfig& config,
                            SensitivityGrid* grid, obs::Context* obs) {
  exec::ExecConfig exec;
  exec.obs = obs;
  return exec::run_campaign_sharded(regions, strikes, config, exec, grid)
      .merged;
}

RecoveryResult run_recovery_campaign(const std::vector<RecoveryRegion>& regions,
                                     const StrikeMultiplicityModel& strikes,
                                     const CampaignConfig& config,
                                     const RecoveryPolicy& policy,
                                     SensitivityGrid* grid,
                                     obs::Context* obs) {
  exec::ExecConfig exec;
  exec.obs = obs;
  return exec::run_recovery_campaign_sharded(regions, strikes, config, policy,
                                             exec, grid)
      .merged;
}

}  // namespace ftspm
