#include "ftspm/workload/trace_io.h"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "ftspm/util/error.h"

namespace ftspm {

namespace {

char type_code(AccessType type) {
  switch (type) {
    case AccessType::Fetch: return 'F';
    case AccessType::Read: return 'R';
    case AccessType::Write: return 'W';
    case AccessType::CallEnter: return 'C';
    case AccessType::CallExit: return 'X';
  }
  return '?';
}

AccessType type_of(char code, std::size_t line) {
  switch (code) {
    case 'F': return AccessType::Fetch;
    case 'R': return AccessType::Read;
    case 'W': return AccessType::Write;
    case 'C': return AccessType::CallEnter;
    case 'X': return AccessType::CallExit;
    default:
      throw Error("trace line " + std::to_string(line) +
                  ": unknown event type '" + std::string(1, code) + "'");
  }
}

BlockKind kind_of(const std::string& word, std::size_t line) {
  if (word == "code") return BlockKind::Code;
  if (word == "data") return BlockKind::Data;
  if (word == "stack") return BlockKind::Stack;
  throw Error("trace line " + std::to_string(line) + ": unknown block kind '" +
              word + "'");
}

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw Error("trace line " + std::to_string(line) + ": " + what);
}

/// Narrows a parsed field to the width its TraceEvent/Block member
/// actually has. The old code static_cast the uint64_t straight down,
/// so an offset of 2^32 silently wrapped to 0 and validated fine.
template <typename Narrow>
Narrow narrow_field(std::uint64_t value, const char* field,
                    std::size_t line) {
  if (value > std::numeric_limits<Narrow>::max())
    fail(line, std::string(field) + " " + std::to_string(value) +
                   " exceeds the maximum of " +
                   std::to_string(std::numeric_limits<Narrow>::max()));
  return static_cast<Narrow>(value);
}

/// The non-empty lines of a stream, without their '\n' or one trailing
/// '\r', numbered as they are read. The stream is read in blocks of
/// kBlockBytes, so a file is never held whole: only its current block
/// and any line left unfinished at the block's end.
class LineReader {
 public:
  explicit LineReader(std::istream& in) : in_(in) {}

  /// Sets `line` to the next non-empty line; false at the end.
  bool next(std::string_view& line) {
    while (true) {
      std::size_t nl = rest_.find('\n');
      while (nl == std::string_view::npos) {
        // The kept text was searched already: a refill appends to it,
        // so only the new block is searched and a long line costs one
        // pass over its bytes.
        const std::size_t searched = rest_.size();
        if (!refill()) break;
        nl = rest_.find('\n', searched);
      }
      if (rest_.empty()) return false;
      line = rest_.substr(0, nl);
      rest_.remove_prefix(nl == std::string_view::npos ? rest_.size()
                                                       : nl + 1);
      ++line_no_;
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (!line.empty()) return true;
    }
  }
  /// Number of the line next() last read (0 before the first).
  std::size_t line_no() const noexcept { return line_no_; }

 private:
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  /// Keeps the unread rest of the buffer and appends the stream's next
  /// block; false once the stream has nothing more.
  bool refill() {
    if (!in_.good()) return false;
    buffer_.erase(0, buffer_.size() - rest_.size());
    const std::size_t kept = buffer_.size();
    buffer_.resize(kept + kBlockBytes);
    in_.read(buffer_.data() + kept, static_cast<std::streamsize>(kBlockBytes));
    buffer_.resize(kept + static_cast<std::size_t>(in_.gcount()));
    rest_ = buffer_;
    return buffer_.size() > kept;
  }

  std::istream& in_;
  std::string buffer_;     ///< The unread bytes read so far.
  std::string_view rest_;  ///< The part of buffer_ not read yet.
  std::size_t line_no_ = 0;
};

/// The v1 format, read from `lines`.
Workload read_workload(LineReader& lines) {
  std::string_view line;
  if (!lines.next(line) || line != "ftspm-trace v1")
    fail(lines.line_no() ? lines.line_no() : 1,
         "missing 'ftspm-trace v1' header");

  if (!lines.next(line)) fail(lines.line_no(), "missing 'program' record");
  std::istringstream header{std::string(line)};
  std::string keyword, program_name;
  header >> keyword >> program_name;
  if (keyword != "program" || program_name.empty())
    fail(lines.line_no(), "expected 'program <name>'");

  std::vector<Block> blocks;
  std::uint64_t program_bytes = 0;
  std::size_t event_count = 0;
  while (lines.next(line)) {
    const std::size_t line_no = lines.line_no();
    std::istringstream fields{std::string(line)};
    fields >> keyword;
    if (keyword == "block") {
      std::string name, kind;
      std::uint64_t bytes = 0;
      fields >> name >> kind >> bytes;
      if (fields.fail()) fail(line_no, "expected 'block <name> <kind> <bytes>'");
      // A few bytes of file must not ask the profiler for gigabytes.
      if (bytes > kMaxTraceProgramBytes - program_bytes)
        throw InvalidArgument(
            "trace line " + std::to_string(line_no) + ": block size " +
            std::to_string(bytes) + " takes the program past its limit of " +
            std::to_string(kMaxTraceProgramBytes) + " bytes");
      program_bytes += bytes;
      blocks.push_back(Block{name, kind_of(kind, line_no),
                             static_cast<std::uint32_t>(bytes)});
    } else if (keyword == "trace") {
      fields >> event_count;
      if (fields.fail()) fail(line_no, "expected 'trace <count>'");
      break;
    } else {
      fail(line_no, "unexpected record '" + keyword + "'");
    }
  }
  if (blocks.empty()) fail(lines.line_no(), "no blocks declared");

  // The header's count is not trusted with an allocation: events are
  // appended as their lines parse, so a file that claims more than it
  // holds fails as truncated after reading what it has.
  Trace trace;
  for (std::size_t i = 0; i < event_count; ++i) {
    if (!lines.next(line))
      fail(lines.line_no(), "trace truncated: expected " +
                                std::to_string(event_count) + " events");
    const std::size_t line_no = lines.line_no();
    std::istringstream fields{std::string(line)};
    std::string code;
    std::uint64_t block = 0, offset = 0, repeat = 0, gap = 0;
    fields >> code >> block >> offset >> repeat >> gap;
    if (fields.fail() || code.size() != 1)
      fail(line_no, "expected '<type> <block> <offset> <repeat> <gap>'");
    TraceEvent e;
    e.type = type_of(code[0], line_no);
    e.block = narrow_field<BlockId>(block, "block id", line_no);
    e.offset = narrow_field<std::uint32_t>(offset, "offset", line_no);
    e.repeat = narrow_field<std::uint32_t>(repeat, "repeat", line_no);
    e.gap = narrow_field<std::uint16_t>(gap, "gap", line_no);
    trace.push_back(e);
  }

  Workload workload{Program(program_name, std::move(blocks)),
                    std::move(trace)};
  validate_trace(workload.program, workload.trace);
  return workload;
}

}  // namespace

void write_workload(std::ostream& os, const Workload& workload) {
  os << "ftspm-trace v1\n";
  os << "program " << workload.program.name() << "\n";
  for (const Block& blk : workload.program.blocks())
    os << "block " << blk.name << " " << to_string(blk.kind) << " "
       << blk.size_bytes << "\n";
  const Trace& trace = workload.trace;
  os << "trace " << trace.size() << "\n";
  // Event lines go out in 64 KiB blocks, one stream write each rather
  // than one per field: a std::cout synced with stdio pays per write.
  constexpr std::size_t kBlockBytes = 64 * 1024;
  std::string block;
  block.reserve(kBlockBytes + 64);
  const auto field = [&block](std::uint64_t value, char separator) {
    char digits[24];
    block.append(digits,
                 std::to_chars(digits, digits + sizeof digits, value).ptr);
    block.push_back(separator);
  };
  for (std::size_t k = 0; k < trace.chunk_count(); ++k) {
    for (const TraceEvent e : trace.chunk(k)) {
      block.push_back(type_code(e.type));
      block.push_back(' ');
      field(e.block, ' ');
      field(e.offset, ' ');
      field(e.repeat, ' ');
      field(e.gap, '\n');
      if (block.size() >= kBlockBytes) {
        os.write(block.data(), static_cast<std::streamsize>(block.size()));
        block.clear();
      }
    }
  }
  os.write(block.data(), static_cast<std::streamsize>(block.size()));
}

std::string serialize_workload(const Workload& workload) {
  std::ostringstream os;
  write_workload(os, workload);
  return std::move(os).str();
}

Workload parse_workload(std::string_view text) {
  std::istringstream in{std::string(text)};
  LineReader lines(in);
  return read_workload(lines);
}

void save_workload(const Workload& workload, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out.good())
    throw InvalidArgument("cannot open '" + path + "' for writing");
  write_workload(out, workload);
  out.flush();
  if (!out.good()) throw Error("write to '" + path + "' failed");
}

Workload load_workload(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw InvalidArgument("cannot open '" + path + "'");
  LineReader lines(in);
  Workload workload = read_workload(lines);
  if (in.bad()) throw Error("read from '" + path + "' failed");
  return workload;
}

}  // namespace ftspm
