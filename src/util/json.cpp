#include "ftspm/util/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "ftspm/util/error.h"
#include "ftspm/util/ndjson.h"

namespace ftspm {

void JsonWriter::comma() {
  if (!has_items_.empty()) {
    if (has_items_.back()) out_ += ',';
    has_items_.back() = true;
  }
}

void JsonWriter::key_prefix(std::string_view key) {
  FTSPM_REQUIRE(!stack_.empty() && stack_.back() == Frame::Object,
                "keyed emission outside an object");
  comma();
  out_ += '"';
  out_ += escape(key);
  out_ += "\":";
}

std::string JsonWriter::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonWriter::number(double v) {
  FTSPM_REQUIRE(std::isfinite(v), "JSON numbers must be finite");
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Trim to the shortest representation that round-trips.
  for (int precision = 1; precision < 17; ++precision) {
    char candidate[32];
    std::snprintf(candidate, sizeof candidate, "%.*g", precision, v);
    double parsed = 0.0;
    std::sscanf(candidate, "%lf", &parsed);
    if (parsed == v) return candidate;
  }
  return buf;
}

JsonWriter& JsonWriter::begin_object() {
  FTSPM_REQUIRE(stack_.empty() || stack_.back() == Frame::Array,
                "unkeyed object belongs in an array or at the root");
  comma();
  out_ += '{';
  stack_.push_back(Frame::Object);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::begin_object(std::string_view key) {
  key_prefix(key);
  out_ += '{';
  stack_.push_back(Frame::Object);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  FTSPM_REQUIRE(!stack_.empty() && stack_.back() == Frame::Object,
                "end_object without an open object");
  out_ += '}';
  stack_.pop_back();
  has_items_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array(std::string_view key) {
  key_prefix(key);
  out_ += '[';
  stack_.push_back(Frame::Array);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  FTSPM_REQUIRE(stack_.empty() || stack_.back() == Frame::Array,
                "unkeyed array belongs in an array or at the root");
  comma();
  out_ += '[';
  stack_.push_back(Frame::Array);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  FTSPM_REQUIRE(!stack_.empty() && stack_.back() == Frame::Array,
                "end_array without an open array");
  out_ += ']';
  stack_.pop_back();
  has_items_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, std::string_view value) {
  key_prefix(key);
  out_ += '"';
  out_ += escape(value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, const char* value) {
  return field(key, std::string_view(value));
}

JsonWriter& JsonWriter::field(std::string_view key, double value) {
  key_prefix(key);
  out_ += number(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, std::uint64_t value) {
  key_prefix(key);
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, std::int64_t value) {
  key_prefix(key);
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, bool value) {
  key_prefix(key);
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::element(std::string_view value) {
  FTSPM_REQUIRE(!stack_.empty() && stack_.back() == Frame::Array,
                "element outside an array");
  comma();
  out_ += '"';
  out_ += escape(value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::element(double value) {
  FTSPM_REQUIRE(!stack_.empty() && stack_.back() == Frame::Array,
                "element outside an array");
  comma();
  out_ += number(value);
  return *this;
}

JsonWriter& JsonWriter::element(std::uint64_t value) {
  FTSPM_REQUIRE(!stack_.empty() && stack_.back() == Frame::Array,
                "element outside an array");
  comma();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::raw_field(std::string_view key,
                                  std::string_view raw_json) {
  key_prefix(key);
  out_ += raw_json;
  return *this;
}

std::string JsonWriter::quote(std::string_view s) {
  return '"' + escape(s) + '"';
}

std::string JsonWriter::str() const {
  FTSPM_REQUIRE(stack_.empty(), "unclosed JSON containers");
  return out_;
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  FTSPM_REQUIRE(v != nullptr, "missing JSON member '" + std::string(key) +
                                  "'");
  return *v;
}

std::optional<std::uint64_t> json_u64(const JsonValue& v, std::uint64_t max) {
  if (!v.is_number()) return std::nullopt;
  const double d = v.number;
  // The negated range test also rejects NaN; 0x1p64 is 2^64 exactly.
  if (!(d >= 0.0 && d < 0x1p64) || std::floor(d) != d) return std::nullopt;
  const auto n = static_cast<std::uint64_t>(d);
  if (n > max) return std::nullopt;
  return n;
}

std::string JsonValue::dump() const {
  switch (kind) {
    case Kind::Null: return "null";
    case Kind::Bool: return boolean ? "true" : "false";
    case Kind::Number: return JsonWriter::number(number);
    case Kind::String: return JsonWriter::quote(string);
    case Kind::Array: {
      std::string out = "[";
      for (std::size_t i = 0; i < array.size(); ++i) {
        if (i != 0) out += ',';
        out += array[i].dump();
      }
      out += ']';
      return out;
    }
    case Kind::Object: {
      std::string out = "{";
      for (std::size_t i = 0; i < object.size(); ++i) {
        if (i != 0) out += ',';
        out += JsonWriter::quote(object[i].first);
        out += ':';
        out += object[i].second.dump();
      }
      out += '}';
      return out;
    }
  }
  return "null";
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("JSON parse error at offset " + std::to_string(pos_) + ": " +
                what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        v.string = parse_string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default: return parse_number();
    }
  }

  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.kind = JsonValue::Kind::Bool;
    v.boolean = b;
    return v;
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      c = text_[pos_++];
      switch (c) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad hex digit in \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by JsonWriter and are rejected for simplicity).
          if (code >= 0xd800 && code <= 0xdfff)
            fail("surrogate escapes are unsupported");
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    double parsed = 0.0;
    const std::string token(text_.substr(start, pos_ - start));
    // JSON forbids leading zeros ("01") and a bare leading dot, both of
    // which strtod happily accepts.
    const std::size_t digits = token[0] == '-' ? 1 : 0;
    if (token.size() > digits + 1 && token[digits] == '0' &&
        token[digits + 1] >= '0' && token[digits + 1] <= '9') {
      pos_ = start;
      fail("malformed number '" + token + "'");
    }
    char* endp = nullptr;
    parsed = std::strtod(token.c_str(), &endp);
    if (endp == nullptr || *endp != '\0') {
      pos_ = start;
      fail("malformed number '" + token + "'");
    }
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    v.number = parsed;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  JsonParser parser(text);
  return parser.parse_document();
}

std::vector<JsonValue> parse_ndjson(std::string_view text) {
  // Whole-document convenience wrapper over the incremental framer so
  // ledger / event-log readers share one NDJSON path with the socket
  // layer. Cap 0: callers hand us trusted local files of any size.
  NdjsonReader reader(0);
  reader.feed(text);
  reader.finish();
  std::vector<JsonValue> docs;
  while (std::optional<JsonValue> doc = reader.next())
    docs.push_back(std::move(*doc));
  return docs;
}

}  // namespace ftspm
