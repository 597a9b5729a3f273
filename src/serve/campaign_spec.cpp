#include "ftspm/serve/campaign_spec.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>
#include <vector>

#include "ftspm/core/system_campaign.h"
#include "ftspm/exec/parallel_campaign.h"
#include "ftspm/exec/thread_pool.h"
#include "ftspm/mem/technology_library.h"
#include "ftspm/report/campaign_report.h"
#include "ftspm/util/error.h"

namespace ftspm::serve {

namespace {

ProtectionKind protection_kind(const std::string& name,
                               std::uint32_t& check_bits) {
  if (name == "parity") {
    check_bits = 1;
    return ProtectionKind::Parity;
  }
  if (name == "secded") {
    check_bits = 8;
    return ProtectionKind::SecDed;
  }
  if (name == "none") {
    check_bits = 0;
    return ProtectionKind::None;
  }
  throw InvalidArgument("unknown protection '" + name + "'");
}

/// Exact non-negative integer out of a JSON number (the wire carries
/// doubles; 1e18-scale counts still round-trip, fractions do not).
std::uint64_t as_u64(const JsonValue& v, std::string_view key,
                     std::uint64_t max) {
  if (!v.is_number())
    throw InvalidArgument("spec." + std::string(key) + " must be a number");
  const std::optional<std::uint64_t> n = json_u64(v, max);
  if (!n.has_value())
    throw InvalidArgument("spec." + std::string(key) +
                          " must be an integer in [0, " + std::to_string(max) +
                          "]");
  return *n;
}

double as_double(const JsonValue& v, std::string_view key) {
  if (!v.is_number())
    throw InvalidArgument("spec." + std::string(key) + " must be a number");
  return v.number;
}

}  // namespace

void validate_spec(const CampaignSpec& spec) {
  std::uint32_t check_bits = 0;
  protection_kind(spec.protection, check_bits);  // throws on unknown
  if (spec.strikes < 1) throw InvalidArgument("spec.strikes must be >= 1");
  if (spec.size < 8) throw InvalidArgument("spec.size must be >= 8 bytes");
  if (spec.size % 8 != 0)
    throw InvalidArgument("spec.size must be a multiple of 8 bytes");
  if ((spec.recover || spec.scrub_interval != 0) &&
      spec.size > kMaxRecoverySpecSize)
    throw InvalidArgument(
        "spec.size must be at most " + std::to_string(kMaxRecoverySpecSize) +
        " bytes (2^24) with recover or scrub_interval set");
  if (spec.interleave < 1)
    throw InvalidArgument("spec.interleave must be >= 1");
  if (!(spec.node > 0.0)) throw InvalidArgument("spec.node must be positive");
  if (!(spec.occupancy >= 0.0 && spec.occupancy <= 1.0))
    throw InvalidArgument("spec.occupancy must be in [0, 1]");
  if (spec.shards < 1) throw InvalidArgument("spec.shards must be >= 1");
  if (!(spec.dirty_fraction >= 0.0 && spec.dirty_fraction <= 1.0))
    throw InvalidArgument("spec.dirty_fraction must be in [0, 1]");
  if (spec.refetch_words < 1)
    throw InvalidArgument("spec.refetch_words must be >= 1");
}

CampaignSpec spec_from_json(const JsonValue& value) {
  if (!value.is_object())
    throw InvalidArgument("campaign spec must be an object");
  CampaignSpec spec;
  for (const auto& [key, v] : value.object) {
    if (key == "protection") {
      if (!v.is_string())
        throw InvalidArgument("spec.protection must be a string");
      spec.protection = v.string;
    } else if (key == "strikes") {
      spec.strikes = as_u64(v, key, kMaxSpecCount);
    } else if (key == "seed") {
      spec.seed = as_u64(v, key, kMaxSpecCount);
    } else if (key == "size") {
      spec.size = as_u64(v, key, kMaxSpecSize);
    } else if (key == "interleave") {
      spec.interleave =
          static_cast<std::uint32_t>(as_u64(v, key, kMaxSpecInterleave));
    } else if (key == "node") {
      spec.node = as_double(v, key);
    } else if (key == "occupancy") {
      spec.occupancy = as_double(v, key);
    } else if (key == "shards") {
      spec.shards = static_cast<std::uint32_t>(as_u64(v, key, kMaxSpecShards));
    } else if (key == "recover") {
      if (!v.is_bool()) throw InvalidArgument("spec.recover must be a boolean");
      spec.recover = v.boolean;
    } else if (key == "scrub_interval") {
      spec.scrub_interval = as_u64(v, key, kMaxSpecCount);
    } else if (key == "dirty_fraction") {
      spec.dirty_fraction = as_double(v, key);
    } else if (key == "refetch_words") {
      spec.refetch_words = as_u64(v, key, kMaxSpecRefetchWords);
    } else if (key == "heartbeat_strikes") {
      spec.heartbeat_strikes = as_u64(v, key, kMaxSpecCount);
    } else {
      throw InvalidArgument("unknown spec field '" + key + "'");
    }
  }
  validate_spec(spec);
  return spec;
}

std::string spec_to_json(const CampaignSpec& spec) {
  JsonWriter w;
  w.begin_object()
      .field("protection", spec.protection)
      .field("strikes", spec.strikes)
      .field("seed", spec.seed)
      .field("size", spec.size)
      .field("interleave", static_cast<std::uint64_t>(spec.interleave))
      .field("node", spec.node)
      .field("occupancy", spec.occupancy)
      .field("shards", static_cast<std::uint64_t>(spec.shards))
      .field("recover", spec.recover)
      .field("scrub_interval", spec.scrub_interval)
      .field("dirty_fraction", spec.dirty_fraction)
      .field("refetch_words", spec.refetch_words)
      .field("heartbeat_strikes", spec.heartbeat_strikes)
      .end_object();
  return w.str();
}

CampaignOutcome run_campaign_spec(const CampaignSpec& spec,
                                  const CampaignRunHooks& hooks) {
  validate_spec(spec);
  std::uint32_t check_bits = 0;
  const ProtectionKind kind = protection_kind(spec.protection, check_bits);

  RecoveryRegion region;
  region.inject = InjectionRegion{RegionGeometry(spec.size, check_bits), kind,
                                  spec.occupancy, spec.interleave};
  const TechnologyLibrary lib;
  region.tech = kind == ProtectionKind::SecDed
                    ? lib.secded_sram()
                    : (kind == ProtectionKind::Parity ? lib.parity_sram()
                                                      : lib.unprotected_sram());
  region.dirty_fraction = spec.dirty_fraction;
  region.refetch_words = spec.refetch_words;
  region.scrub = kind == ProtectionKind::SecDed;

  CampaignConfig cfg;
  cfg.strikes = spec.strikes;
  cfg.seed = spec.seed;
  if (spec.heartbeat_strikes != 0 && hooks.progress) {
    cfg.progress_interval = std::max(spec.heartbeat_strikes,
                                     spec.strikes / kMaxSpecHeartbeats);
    cfg.progress = hooks.progress;
  }

  const RecoveryPolicy policy =
      make_recovery_policy(SimConfig{}, spec.recover, spec.scrub_interval);

  exec::ExecConfig exec_cfg = hooks;
  exec_cfg.shards = spec.shards;

  const StrikeMultiplicityModel strikes =
      StrikeMultiplicityModel::for_node(spec.node);

  CampaignOutcome out;
  const auto wall_start = std::chrono::steady_clock::now();
  exec::RecoveryShardedRun run = exec::run_recovery_campaign_sharded(
      {region}, strikes, cfg, policy, exec_cfg);
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
  out.result = run.merged;
  out.recovery_active = policy.active();
  out.complete = run.complete;
  out.used_jobs = hooks.pool != nullptr ? hooks.pool->size()
                                        : exec_cfg.effective_jobs();
  out.used_shards = static_cast<std::uint32_t>(run.shard_results.size());
  out.strikes_per_sec =
      out.wall_ms > 0.0
          ? static_cast<double>(out.result.strikes.strikes) * 1e3 / out.wall_ms
          : 0.0;
  out.sensitivity = std::move(run.sensitivity);
  return out;
}

obs::LedgerRecord campaign_spec_record(const CampaignSpec& spec,
                                       const CampaignOutcome& outcome) {
  return report::campaign_run_record(
      outcome.result.strikes,
      outcome.recovery_active ? &outcome.result.recovery : nullptr,
      spec.protection, spec.seed, outcome.used_jobs, outcome.used_shards,
      outcome.wall_ms, outcome.strikes_per_sec);
}

}  // namespace ftspm::serve
