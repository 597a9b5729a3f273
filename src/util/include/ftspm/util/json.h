// Minimal JSON emission and parsing for machine-readable tool output.
// JsonWriter is a stack-based writer: push objects/arrays, emit
// key/value pairs, pop. It produces deterministic, valid JSON with
// escaping; numbers use shortest-round-trip formatting for doubles.
// parse_json() is the matching strict recursive-descent reader used by
// tests and by consumers of the observability dumps.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ftspm {

class JsonWriter {
 public:
  JsonWriter() = default;

  // --- structure -----------------------------------------------------
  JsonWriter& begin_object();
  JsonWriter& begin_object(std::string_view key);
  JsonWriter& end_object();
  JsonWriter& begin_array(std::string_view key);
  JsonWriter& begin_array();
  JsonWriter& end_array();

  // --- values ----------------------------------------------------------
  JsonWriter& field(std::string_view key, std::string_view value);
  JsonWriter& field(std::string_view key, const char* value);
  JsonWriter& field(std::string_view key, double value);
  JsonWriter& field(std::string_view key, std::uint64_t value);
  JsonWriter& field(std::string_view key, std::int64_t value);
  JsonWriter& field(std::string_view key, bool value);
  JsonWriter& element(std::string_view value);
  JsonWriter& element(double value);
  JsonWriter& element(std::uint64_t value);

  /// Splices `raw_json` in verbatim as the value of `key`. The caller
  /// guarantees it is a valid JSON fragment.
  JsonWriter& raw_field(std::string_view key, std::string_view raw_json);

  /// `s` as a quoted, escaped JSON string literal.
  static std::string quote(std::string_view s);
  /// Shortest-round-trip formatting for a finite double.
  static std::string number(double v);

  /// Finishes and returns the document. Throws if containers are
  /// still open.
  std::string str() const;

 private:
  enum class Frame : std::uint8_t { Object, Array };
  void comma();
  void key_prefix(std::string_view key);
  static std::string escape(std::string_view s);

  std::string out_;
  std::vector<Frame> stack_;
  std::vector<bool> has_items_;
};

/// A parsed JSON document node. Plain value type; object members keep
/// their source order (lookups are linear — fine for tool-sized
/// documents).
class JsonValue {
 public:
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const noexcept { return kind == Kind::Null; }
  bool is_bool() const noexcept { return kind == Kind::Bool; }
  bool is_number() const noexcept { return kind == Kind::Number; }
  bool is_string() const noexcept { return kind == Kind::String; }
  bool is_array() const noexcept { return kind == Kind::Array; }
  bool is_object() const noexcept { return kind == Kind::Object; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const noexcept;
  /// Like find() but throws ftspm::Error when the member is missing.
  const JsonValue& at(std::string_view key) const;

  /// Compact re-serialization (members keep their source order). With
  /// parse_json this round-trips any document the writer produced.
  std::string dump() const;
};

/// The unsigned integer a JSON number holds: nullopt unless `v` is a
/// number whose value is an integer in [0, 2^64) and at most `max`.
/// Numbers parse to doubles, so readers of counts, seeds and indices go
/// through this instead of casting (a cast truncates 1.5 to 1 and is
/// undefined for 1e30). Callers throw their own error on nullopt.
std::optional<std::uint64_t> json_u64(const JsonValue& v,
                                      std::uint64_t max = UINT64_MAX);

/// Parses a complete JSON document (strict: no trailing garbage, no
/// comments, no trailing commas). Throws ftspm::Error with an offset
/// on malformed input.
JsonValue parse_json(std::string_view text);

/// Parses newline-delimited JSON (NDJSON): one document per line,
/// blank lines skipped, CR tolerated before LF. Each line is parsed
/// strictly; errors are rethrown with a 1-based line number. Tests use
/// it to read whole event logs, heartbeat streams and ledgers; the
/// ledger scanner splits its lines itself, to skip a bad one with a
/// warning instead of throwing.
std::vector<JsonValue> parse_ndjson(std::string_view text);

}  // namespace ftspm
