#include "ftspm/workload/trace_io.h"

#include <cstdint>
#include <fstream>
#include <limits>
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

}  // namespace

std::string serialize_workload(const Workload& workload) {
  std::ostringstream os;
  os << "ftspm-trace v1\n";
  os << "program " << workload.program.name() << "\n";
  for (const Block& blk : workload.program.blocks())
    os << "block " << blk.name << " " << to_string(blk.kind) << " "
       << blk.size_bytes << "\n";
  const Trace& trace = workload.trace;
  os << "trace " << trace.size() << "\n";
  for (std::size_t k = 0; k < trace.chunk_count(); ++k)
    for (const TraceEvent& e : trace.chunk(k))
      os << type_code(e.type) << " " << e.block << " " << e.offset << " "
         << e.repeat << " " << e.gap << "\n";
  return os.str();
}

Workload parse_workload(std::string_view text) {
  std::istringstream is{std::string(text)};
  std::string line;
  std::size_t line_no = 0;
  auto next_line = [&]() -> bool {
    while (std::getline(is, line)) {
      ++line_no;
      // Tolerate CRLF files: getline only strips the '\n'.
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) return true;
    }
    return false;
  };

  if (!next_line() || line != "ftspm-trace v1")
    fail(line_no ? line_no : 1, "missing 'ftspm-trace v1' header");

  if (!next_line()) fail(line_no, "missing 'program' record");
  std::istringstream header(line);
  std::string keyword, program_name;
  header >> keyword >> program_name;
  if (keyword != "program" || program_name.empty())
    fail(line_no, "expected 'program <name>'");

  std::vector<Block> blocks;
  std::size_t event_count = 0;
  while (next_line()) {
    std::istringstream fields(line);
    fields >> keyword;
    if (keyword == "block") {
      std::string name, kind;
      std::uint64_t bytes = 0;
      fields >> name >> kind >> bytes;
      if (fields.fail()) fail(line_no, "expected 'block <name> <kind> <bytes>'");
      blocks.push_back(Block{name, kind_of(kind, line_no),
                             narrow_field<std::uint32_t>(bytes, "block size",
                                                         line_no)});
    } else if (keyword == "trace") {
      fields >> event_count;
      if (fields.fail()) fail(line_no, "expected 'trace <count>'");
      break;
    } else {
      fail(line_no, "unexpected record '" + keyword + "'");
    }
  }
  if (blocks.empty()) fail(line_no, "no blocks declared");

  // The header's count is not trusted with an allocation: events are
  // appended as their lines parse, so a file that claims more than it
  // holds fails as truncated after reading what it has.
  Trace trace;
  for (std::size_t i = 0; i < event_count; ++i) {
    if (!next_line()) fail(line_no, "trace truncated: expected " +
                                        std::to_string(event_count) +
                                        " events");
    std::istringstream fields(line);
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

void save_workload(const Workload& workload, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out.good())
    throw InvalidArgument("cannot open '" + path + "' for writing");
  out << serialize_workload(workload);
  if (!out.good()) throw Error("write to '" + path + "' failed");
}

Workload load_workload(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw InvalidArgument("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_workload(buffer.str());
}

}  // namespace ftspm
