#include "ftspm/workload/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "ftspm/util/error.h"
#include "ftspm/workload/case_study.h"
#include "ftspm/workload/suite.h"

namespace ftspm {
namespace {

Workload tiny_workload() {
  Program p("tiny", {Block{"fn", BlockKind::Code, 64},
                     Block{"arr", BlockKind::Data, 64},
                     Block{"stack", BlockKind::Stack, 64}});
  Trace t{
      TraceEvent{0, AccessType::CallEnter, 0, 16, 1},
      TraceEvent{0, AccessType::Fetch, 1, 0, 5},
      TraceEvent{1, AccessType::Read, 0, 3, 2},
      TraceEvent{2, AccessType::Write, 0, 0, 1},
      TraceEvent{0, AccessType::CallExit, 0, 0, 1}};
  return Workload{std::move(p), std::move(t)};
}

TEST(TraceIoTest, RoundTripPreservesEverything) {
  const Workload original = tiny_workload();
  const Workload parsed = parse_workload(serialize_workload(original));
  EXPECT_EQ(parsed.program.name(), original.program.name());
  ASSERT_EQ(parsed.program.block_count(), original.program.block_count());
  for (std::size_t i = 0; i < original.program.block_count(); ++i) {
    const Block& a = original.program.block(static_cast<BlockId>(i));
    const Block& b = parsed.program.block(static_cast<BlockId>(i));
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.size_bytes, b.size_bytes);
  }
  ASSERT_EQ(parsed.trace.size(), original.trace.size());
  for (std::size_t i = 0; i < original.trace.size(); ++i) {
    EXPECT_EQ(parsed.trace[i].type, original.trace[i].type);
    EXPECT_EQ(parsed.trace[i].block, original.trace[i].block);
    EXPECT_EQ(parsed.trace[i].offset, original.trace[i].offset);
    EXPECT_EQ(parsed.trace[i].repeat, original.trace[i].repeat);
    EXPECT_EQ(parsed.trace[i].gap, original.trace[i].gap);
  }
}

TEST(TraceIoTest, RoundTripOnGeneratedWorkloads) {
  for (const Workload& w :
       {make_case_study(CaseStudyTargets{}.scaled_down(64)),
        make_benchmark(MiBenchmark::Sha, 64)}) {
    const Workload parsed = parse_workload(serialize_workload(w));
    EXPECT_EQ(parsed.total_accesses(), w.total_accesses());
    EXPECT_EQ(parsed.nominal_cycles(), w.nominal_cycles());
    EXPECT_EQ(parsed.trace.size(), w.trace.size());
  }
}

TEST(TraceIoTest, FileRoundTrip) {
  const Workload original = tiny_workload();
  const std::string path = ::testing::TempDir() + "/ftspm_trace_io_test.txt";
  save_workload(original, path);
  const Workload loaded = load_workload(path);
  EXPECT_EQ(loaded.trace.size(), original.trace.size());
  std::remove(path.c_str());
}

TEST(TraceIoTest, RejectsMissingHeader) {
  EXPECT_THROW(parse_workload("program x\n"), Error);
  EXPECT_THROW(parse_workload(""), Error);
}

TEST(TraceIoTest, RejectsUnknownRecords) {
  EXPECT_THROW(parse_workload("ftspm-trace v1\nprogram x\nbogus y\n"),
               Error);
}

TEST(TraceIoTest, RejectsBadBlockKind) {
  EXPECT_THROW(
      parse_workload("ftspm-trace v1\nprogram x\nblock a rom 64\ntrace 0\n"),
      Error);
}

TEST(TraceIoTest, RejectsTruncatedTrace) {
  EXPECT_THROW(parse_workload("ftspm-trace v1\nprogram x\n"
                              "block a data 64\ntrace 2\nR 0 0 1 0\n"),
               Error);
}

// The header's event count sets no allocation: a file claiming far
// more events than it holds fails as truncated once its lines run out.
TEST(TraceIoTest, OversizedEventCountFailsAsTruncated) {
  for (const char* count : {"100000000", "1000000000000"}) {
    try {
      parse_workload(std::string("ftspm-trace v1\nprogram x\n"
                                 "block a data 64\ntrace ") +
                     count + "\nR 0 0 1 0\n");
      ADD_FAILURE() << count << ": parsed";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("trace line 5: trace truncated: expected ") +
                    count + " events");
    }
  }
}

TEST(TraceIoTest, RejectsBadEventType) {
  EXPECT_THROW(parse_workload("ftspm-trace v1\nprogram x\n"
                              "block a data 64\ntrace 1\nQ 0 0 1 0\n"),
               Error);
}

TEST(TraceIoTest, ParsedTracesAreValidated) {
  // Fetch from a data block must be rejected by the validator.
  EXPECT_THROW(parse_workload("ftspm-trace v1\nprogram x\n"
                              "block a data 64\ntrace 1\nF 0 0 1 0\n"),
               Error);
  // Offset beyond the block.
  EXPECT_THROW(parse_workload("ftspm-trace v1\nprogram x\n"
                              "block a data 64\ntrace 1\nR 0 99 1 0\n"),
               Error);
}

TEST(TraceIoTest, CrlfLineEndingsAreAccepted) {
  const Workload original = tiny_workload();
  std::string text = serialize_workload(original);
  std::string crlf;
  for (const char c : text) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  const Workload parsed = parse_workload(crlf);
  ASSERT_EQ(parsed.trace.size(), original.trace.size());
  for (std::size_t i = 0; i < original.trace.size(); ++i) {
    EXPECT_EQ(parsed.trace[i].type, original.trace[i].type);
    EXPECT_EQ(parsed.trace[i].block, original.trace[i].block);
    EXPECT_EQ(parsed.trace[i].offset, original.trace[i].offset);
    EXPECT_EQ(parsed.trace[i].repeat, original.trace[i].repeat);
    EXPECT_EQ(parsed.trace[i].gap, original.trace[i].gap);
  }
  EXPECT_EQ(parsed.program.block(0).size_bytes,
            original.program.block(0).size_bytes);
}

/// Expects parse_workload(text) to throw with both fragments in the
/// message — the line number and the offending field.
void expect_parse_error(const std::string& text, const std::string& line_tag,
                        const std::string& field_tag) {
  try {
    parse_workload(text);
    FAIL() << "expected Error for: " << text;
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(line_tag), std::string::npos) << what;
    EXPECT_NE(what.find(field_tag), std::string::npos) << what;
  }
}

TEST(TraceIoTest, RejectsOversizeFieldsWithLineNumbers) {
  // Every one of these used to static_cast silently: an offset of 2^32
  // wrapped to 0 and the event "validated" fine.
  expect_parse_error(
      "ftspm-trace v1\nprogram x\nblock a data 4294967296\ntrace 0\n",
      "trace line 3", "block size");
  const std::string head =
      "ftspm-trace v1\nprogram x\nblock a data 64\ntrace 1\n";
  expect_parse_error(head + "R 4294967296 0 1 0\n", "trace line 5",
                     "block id");
  expect_parse_error(head + "R 0 4294967296 1 0\n", "trace line 5",
                     "offset");
  expect_parse_error(head + "R 0 0 4294967296 0\n", "trace line 5",
                     "repeat");
  expect_parse_error(head + "R 0 0 1 65536\n", "trace line 5", "gap");
  // The documented maxima themselves still parse (gap's 65535 here;
  // offset/repeat at 2^32-1 would fail block-bounds validation, which
  // is the separate validate_trace contract).
  EXPECT_NO_THROW(parse_workload(head + "R 0 0 1 65535\n"));
}

/// The trace reader's block size: a stream is read 64 KiB at a time.
constexpr std::size_t kReadBlock = 64 * 1024;

TEST(TraceIoTest, LinesAndCrlfSplitAcrossReadBlocksParseExactly) {
  const Workload original = make_benchmark(MiBenchmark::Sha, 4);
  std::string crlf;
  for (const char c : serialize_workload(original)) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  ASSERT_GT(crlf.size(), 3 * kReadBlock);
  // Leading blank lines shift the text so that the first block ends
  // between a '\r' and its '\n'; later blocks end inside lines.
  const std::size_t cr = crlf.rfind('\r', kReadBlock - 1);
  ASSERT_NE(cr, std::string::npos);
  std::string text(kReadBlock - 1 - cr, '\n');
  text += crlf;
  ASSERT_EQ(text[kReadBlock - 1], '\r');
  ASSERT_EQ(text[kReadBlock], '\n');
  // The last line ends without a newline.
  text.resize(text.size() - 2);

  const Workload parsed = parse_workload(text);
  EXPECT_EQ(parsed.program.name(), original.program.name());
  EXPECT_EQ(parsed.program.block_count(), original.program.block_count());
  EXPECT_EQ(parsed.trace, original.trace);

  const std::string path = ::testing::TempDir() + "/ftspm_trace_io_blocks.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  const Workload loaded = load_workload(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.trace, original.trace);
}

TEST(TraceIoTest, FileWithoutNewlineFailsAsMissingHeader) {
  // One line many read blocks long: the reader must keep extending it
  // and then report the header, not stop at a block's end.
  const std::string path = ::testing::TempDir() + "/ftspm_trace_io_long.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << std::string(16 * kReadBlock + 5, 'x');
  }
  try {
    load_workload(path);
    ADD_FAILURE() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "trace line 1: missing 'ftspm-trace v1' header"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(TraceIoTest, WhitespaceOnlyRecordLineKeepsTheOldDiagnosis) {
  // operator>> leaves the keyword of the line before in place, so a
  // blank-looking line after a block record reads as a short block.
  expect_parse_error("ftspm-trace v1\nprogram x\nblock a data 64\n \t \n",
                     "trace line 4", "expected 'block <name> <kind> <bytes>'");
}

TEST(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(load_workload("/nonexistent/path/trace.txt"),
               InvalidArgument);
}

}  // namespace
}  // namespace ftspm
