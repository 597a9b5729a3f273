// Observability: the durable run ledger.
//
// Every `ftspm_tool campaign` / `suite` invocation can append one
// self-contained record — manifest, final campaign counters, derived
// metrics, and wall timings — to an NDJSON ledger file (one JSON
// object per line, appended atomically in a single write). The ledger
// is the durable half of the observability story: it survives the
// process, so later invocations (`ftspm_tool runs list`,
// `ftspm_tool compare A B`) can diff any two historical runs and gate
// CI on counter drift.
//
// Counters and metrics are deterministic (pure functions of seed /
// strikes / shard_count); wall_ms and strikes_per_sec are wall-clock
// measurements and live in a separate "timing" block explicitly
// flagged "nondeterministic" so golden comparisons know to skip them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ftspm {
class JsonValue;
}  // namespace ftspm

namespace ftspm::obs {

/// One ledger line. `counters` and `metrics` keep insertion order in
/// memory but are written sorted by key so records from different
/// code paths compare cleanly.
struct LedgerRecord {
  /// Bump when the line shape changes incompatibly; documented in
  /// docs/observability.md.
  static constexpr std::uint32_t kSchemaVersion = 1;

  std::string id;       ///< "run-N" by default; --run-id overrides.
  std::string command;  ///< "campaign" or "suite".
  std::string workload;
  std::uint64_t scale = 1;
  std::uint64_t seed = 0;
  std::uint32_t jobs = 1;
  std::uint32_t shards = 1;
  std::string library_version;  ///< Filled by to_json when empty.

  /// Deterministic integer outcome counters ("strikes", "sdc", ...).
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// Deterministic derived metrics ("vulnerability", ...).
  std::vector<std::pair<std::string, double>> metrics;

  /// Wall-clock, nondeterministic; excluded from compare gating.
  double wall_ms = 0.0;
  double strikes_per_sec = 0.0;

  /// The record as a single-line JSON object (no trailing newline).
  std::string to_json() const;
  /// Parses one ledger line; throws ftspm::Error on missing/ill-typed
  /// members or an unknown schema version.
  static LedgerRecord from_json(const JsonValue& v);
};

/// Reads every record from an NDJSON ledger file. A missing file is an
/// empty ledger; malformed lines throw ftspm::Error with line numbers.
std::vector<LedgerRecord> read_ledger(const std::string& path);

/// A lenient ledger read: the records that parsed plus one warning per
/// skipped line. Browsing commands (`runs list`, `report trend`) use
/// this so one truncated line — a crashed appender, a partial copy —
/// cannot hide every other run; gating commands (`compare`) stay on
/// the strict read_ledger.
struct LedgerScan {
  std::vector<LedgerRecord> records;
  /// One human-readable warning per skipped line, in file order, each
  /// naming the 1-based file line number.
  std::vector<std::string> warnings;
};

/// Reads `path` like read_ledger but skips malformed lines (bad JSON,
/// bad record shape, unknown schema) instead of throwing, collecting a
/// warning per skip. A missing file is an empty scan.
LedgerScan scan_ledger(const std::string& path);

/// How far count_ledger_records has read one ledger file: the file's
/// identity, the bytes through the last newline it read, and the
/// records scan_ledger finds in those bytes. A default cursor has read
/// nothing.
struct LedgerCursor {
  std::uint64_t device = 0;
  std::uint64_t inode = 0;
  std::uint64_t offset = 0;
  std::uint64_t records = 0;
};

/// The number of records scan_ledger(path) returns, reading only the
/// bytes appended since `cursor` last saw the file, and moving the
/// cursor past every newline-terminated line. An unterminated last
/// line is re-read on every call, so a record a concurrent appender is
/// still writing counts once it is whole, and a torn line that a later
/// append completes into garbage counts as the full scan counts it.
/// The cursor starts over when the file is missing, shrank, has a new
/// device or inode, or no longer has a newline where the cursor ended.
/// A fresh cursor reads the whole file.
std::uint64_t count_ledger_records(const std::string& path,
                                   LedgerCursor& cursor);

/// Appends `record` to the ledger at `path` (created if absent). The
/// line is written with one ::write on an O_APPEND descriptor, so
/// concurrent appenders never interleave partial lines. Throws
/// ftspm::Error on I/O failure, including a short write.
void append_ledger(const LedgerRecord& record, const std::string& path);

/// Resolves a run reference against the ledger: exact `id` match
/// first (last match wins, matching "most recent run named X"), then
/// `@N` or an all-digits ref as a 0-based index. Returns nullptr when
/// absent; throws InvalidArgument on a malformed `@` ref (non-digit
/// or overflowing index), naming the offending text.
const LedgerRecord* find_run(const std::vector<LedgerRecord>& runs,
                             std::string_view ref);

}  // namespace ftspm::obs
