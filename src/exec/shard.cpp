#include "ftspm/exec/shard.h"

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "ftspm/util/error.h"
#include "ftspm/util/json.h"
#include "ftspm/util/rng.h"

namespace ftspm::exec {

namespace {

std::string hex_u64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// A checkpoint is user-named input: every defect in it is an
/// InvalidArgument carrying the message alone.
void require(bool ok, const std::string& what) {
  if (!ok) throw InvalidArgument(what);
}

const JsonValue& member(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  require(v != nullptr,
          std::string("checkpoint field '") + key + "' is missing");
  return *v;
}

std::uint64_t parse_hex_u64(const JsonValue& v, const char* what) {
  require(v.is_string() && v.string.size() > 2 &&
              v.string.compare(0, 2, "0x") == 0,
          std::string("checkpoint field '") + what +
              "' must be a 0x-prefixed hex string");
  std::uint64_t out = 0;
  for (std::size_t i = 2; i < v.string.size(); ++i) {
    const char c = v.string[i];
    std::uint64_t digit;
    if (c >= '0' && c <= '9') digit = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      digit = static_cast<std::uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F')
      digit = static_cast<std::uint64_t>(c - 'A' + 10);
    else
      throw InvalidArgument(std::string("bad hex digit in checkpoint field '") +
                            what + "'");
    require(out <= (~0ULL >> 4),
            std::string("checkpoint field '") + what + "' overflows 64 bits");
    out = (out << 4) | digit;
  }
  return out;
}

std::uint64_t get_u64(const JsonValue& obj, const char* key,
                      std::uint64_t max = UINT64_MAX) {
  const std::optional<std::uint64_t> n = json_u64(member(obj, key), max);
  require(n.has_value(), std::string("checkpoint field '") + key +
                             "' must be a non-negative number");
  return *n;
}

}  // namespace

std::vector<CampaignShard> make_shard_plan(const CampaignConfig& root,
                                           std::uint32_t shard_count) {
  FTSPM_REQUIRE(shard_count >= 1, "a campaign needs at least one shard");
  const std::uint64_t base = root.strikes / shard_count;
  const std::uint64_t extra = root.strikes % shard_count;
  std::vector<CampaignShard> plan;
  plan.reserve(shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    CampaignShard shard;
    shard.index = i;
    shard.config = root;
    shard.config.strikes = base + (i < extra ? 1 : 0);
    // One shard reproduces the serial campaign bit for bit; only
    // genuine splits re-derive seeds.
    if (shard_count > 1)
      shard.config.seed = Rng::derive_stream_seed(root.seed, i);
    // Progress belongs to the coordinator, never to a worker.
    shard.config.progress_interval = 0;
    shard.config.progress = nullptr;
    plan.push_back(std::move(shard));
  }
  return plan;
}

CampaignResult merge_shard_results(const std::vector<CampaignResult>& parts) {
  CampaignResult merged;
  for (const CampaignResult& p : parts) {
    merged.strikes += p.strikes;
    merged.masked += p.masked;
    merged.dre += p.dre;
    merged.due += p.due;
    merged.sdc += p.sdc;
  }
  return merged;
}

bool CampaignCheckpoint::complete() const noexcept {
  for (const ShardCheckpoint& s : shards)
    if (s.done < s.strikes) return false;
  return true;
}

void CampaignCheckpoint::validate_against(const CampaignConfig& root,
                                          std::uint32_t shards_expected,
                                          std::uint64_t salt,
                                          std::string_view kind_expected) const {
  require(root_seed == root.seed,
          "checkpoint was taken under a different seed");
  require(strikes == root.strikes,
          "checkpoint was taken with a different strike budget");
  require(shard_count == shards_expected,
          "checkpoint was taken with a different shard count");
  require(seed_salt == salt,
          "checkpoint was taken with a different seed salt");
  require(kind == kind_expected,
          "checkpoint belongs to a different campaign kind");
  require(shards.size() == shard_count,
          "checkpoint shard list does not match its shard count");
  const std::vector<CampaignShard> plan = make_shard_plan(root, shard_count);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    require(shards[i].index == i, "checkpoint shards out of order");
    require(shards[i].strikes == plan[i].config.strikes,
            "checkpoint shard strike budget does not match the plan's "
            "share");
    require(shards[i].done <= shards[i].strikes,
            "checkpoint shard overran its strike budget");
    require(shards[i].partial.strikes == shards[i].done &&
                shards[i].partial.masked + shards[i].partial.dre +
                        shards[i].partial.due + shards[i].partial.sdc ==
                    shards[i].done,
            "checkpoint shard counters disagree with its progress");
  }
}

CampaignShardState restore_shard_state(const ShardCheckpoint& cp) {
  CampaignShardState state;
  state.done = cp.done;
  state.partial = cp.partial;
  state.rng = Rng::from_state(cp.rng_state);
  return state;
}

ShardCheckpoint snapshot_shard_state(std::uint32_t index,
                                     std::uint64_t shard_strikes,
                                     const CampaignShardState& state) {
  ShardCheckpoint cp;
  cp.index = index;
  cp.strikes = shard_strikes;
  cp.done = state.done;
  cp.partial = state.partial;
  cp.rng_state = state.rng.state();
  return cp;
}

std::string checkpoint_to_json(const CampaignCheckpoint& cp) {
  JsonWriter w;
  w.begin_object();
  w.field("version", std::uint64_t{1});
  w.field("kind", cp.kind);
  w.field("root_seed", hex_u64(cp.root_seed));
  w.field("strikes", cp.strikes);
  w.field("shard_count", std::uint64_t{cp.shard_count});
  w.field("seed_salt", hex_u64(cp.seed_salt));
  w.begin_array("shards");
  for (const ShardCheckpoint& s : cp.shards) {
    w.begin_object();
    w.field("shard", std::uint64_t{s.index});
    w.field("strikes", s.strikes);
    w.field("done", s.done);
    w.field("masked", s.partial.masked);
    w.field("dre", s.partial.dre);
    w.field("due", s.partial.due);
    w.field("sdc", s.partial.sdc);
    w.begin_array("rng");
    for (std::uint64_t word : s.rng_state) w.element(hex_u64(word));
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

CampaignCheckpoint checkpoint_from_json(std::string_view text) {
  JsonValue doc;
  try {
    doc = parse_json(text);
  } catch (const Error& e) {
    throw InvalidArgument(std::string("checkpoint: ") + e.what());
  }
  require(doc.is_object(), "checkpoint document must be an object");
  require(get_u64(doc, "version") == 1,
          "unsupported checkpoint version");
  CampaignCheckpoint cp;
  const JsonValue& kind = member(doc, "kind");
  require(kind.is_string(), "checkpoint field 'kind' must be a string");
  cp.kind = kind.string;
  cp.root_seed = parse_hex_u64(member(doc, "root_seed"), "root_seed");
  cp.strikes = get_u64(doc, "strikes");
  cp.shard_count =
      static_cast<std::uint32_t>(get_u64(doc, "shard_count", UINT32_MAX));
  cp.seed_salt = parse_hex_u64(member(doc, "seed_salt"), "seed_salt");
  const JsonValue& shards = member(doc, "shards");
  require(shards.is_array(), "checkpoint 'shards' must be an array");
  cp.shards.reserve(shards.array.size());
  for (const JsonValue& s : shards.array) {
    ShardCheckpoint shard;
    shard.index = static_cast<std::uint32_t>(get_u64(s, "shard", UINT32_MAX));
    shard.strikes = get_u64(s, "strikes");
    shard.done = get_u64(s, "done");
    shard.partial.masked = get_u64(s, "masked");
    shard.partial.dre = get_u64(s, "dre");
    shard.partial.due = get_u64(s, "due");
    shard.partial.sdc = get_u64(s, "sdc");
    shard.partial.strikes = shard.done;
    const JsonValue& rng = member(s, "rng");
    require(rng.is_array() && rng.array.size() == 4,
            "checkpoint shard 'rng' must hold four state words");
    for (std::size_t i = 0; i < 4; ++i)
      shard.rng_state[i] = parse_hex_u64(rng.array[i], "rng");
    cp.shards.push_back(std::move(shard));
  }
  return cp;
}

void store_checkpoint(const CampaignCheckpoint& cp, const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.good())
      throw InvalidArgument("cannot open checkpoint '" + path +
                            "' for writing");
    out << checkpoint_to_json(cp) << "\n";
    if (!out.good()) throw Error("write to '" + tmp + "' failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw Error("cannot move '" + tmp + "' into place");
}

CampaignCheckpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path);
  if (!in.good())
    throw InvalidArgument("cannot open checkpoint '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return checkpoint_from_json(ss.str());
}

}  // namespace ftspm::exec
