// Random run-length traces, and the same traces split into one event per
// word, for checking the per-run trace consumers against word-by-word
// semantics; and malformed traces, for checking that a consumer which
// validates in its own walk throws what validate_trace() throws.
#pragma once

#include <cstdint>
#include <vector>

#include "ftspm/util/rng.h"
#include "ftspm/workload/trace.h"

namespace ftspm::testing_support {

/// A random valid trace over a fixed program: two code blocks, data
/// blocks of 1, 3, 5, 8 and 100 words and a 7-word stack, laid out back
/// to back from a 264-byte code segment, so most data blocks start mid
/// cache line. Runs are shorter than their block, wrap at the block end,
/// are exact multiples of the block size, or span several laps; about
/// half carry a compute gap; balanced call markers are sprinkled in.
inline Workload random_run_workload(std::uint64_t seed,
                                    std::size_t events = 400) {
  Program program("runs", {Block{"f", BlockKind::Code, 64},
                           Block{"g", BlockKind::Code, 200},
                           Block{"one", BlockKind::Data, 8},
                           Block{"three", BlockKind::Data, 24},
                           Block{"five", BlockKind::Data, 40},
                           Block{"eight", BlockKind::Data, 64},
                           Block{"big", BlockKind::Data, 800},
                           Block{"stack", BlockKind::Stack, 56}});
  Rng rng(seed);
  Trace trace;
  std::uint32_t depth = 0;
  while (trace.size() < events) {
    const std::uint64_t pick = rng.next_below(20);
    if (pick == 0) {
      trace.push_back(TraceEvent{0, AccessType::CallEnter, 0, 16, 1});
      ++depth;
      continue;
    }
    if (pick == 1 && depth > 0) {
      trace.push_back(TraceEvent{0, AccessType::CallExit, 0, 0, 1});
      --depth;
      continue;
    }
    const bool fetch = pick < 7;
    const BlockId block = static_cast<BlockId>(
        fetch ? rng.next_below(2) : 2 + rng.next_below(6));
    const std::uint64_t words = program.block(block).size_words();
    const std::uint64_t offset = rng.next_below(words);
    std::uint64_t repeat = 1;
    switch (rng.next_below(5)) {
      case 0: repeat = 1 + rng.next_below(words - offset); break;
      case 1: repeat = words - offset + 1 + rng.next_below(words); break;
      case 2: repeat = words * (1 + rng.next_below(3)); break;
      case 3: repeat = 1 + rng.next_below(6 * words); break;
      default: break;
    }
    const AccessType type = fetch                ? AccessType::Fetch
                            : rng.next_bool(0.5) ? AccessType::Read
                                                 : AccessType::Write;
    const std::uint16_t gap = static_cast<std::uint16_t>(
        rng.next_bool(0.5) ? 0 : 1 + rng.next_below(3));
    trace.push_back(TraceEvent{block, type, gap,
                               static_cast<std::uint32_t>(offset),
                               static_cast<std::uint32_t>(repeat)});
  }
  for (; depth > 0; --depth)
    trace.push_back(TraceEvent{0, AccessType::CallExit, 0, 0, 1});
  return Workload{std::move(program), std::move(trace)};
}

/// The same accesses, one event per word: the word-by-word semantics
/// every run-length consumer must reproduce.
inline Workload split_into_words(const Workload& w) {
  Trace trace;
  for (const TraceEvent& e : w.trace) {
    if (e.is_marker()) {
      trace.push_back(e);
      continue;
    }
    const std::uint64_t words = w.program.block(e.block).size_words();
    for (std::uint64_t k = 0; k < e.repeat; ++k) {
      TraceEvent one = e;
      one.offset = static_cast<std::uint32_t>((e.offset + k) % words);
      one.repeat = 1;
      trace.push_back(one);
    }
  }
  return Workload{w.program, std::move(trace)};
}

/// Every malformed trace of ValidateTraceTest over one small program,
/// each alone and then behind valid events a consumer walks first.
inline std::vector<Workload> malformed_workloads() {
  const Program p("demo", {Block{"fn", BlockKind::Code, 1024},
                           Block{"arr", BlockKind::Data, 512},
                           Block{"stack", BlockKind::Stack, 256}});
  const std::vector<Trace> malformed{
      {TraceEvent{9, AccessType::Read, 0, 0, 1}},
      {TraceEvent{1, AccessType::Fetch, 0, 0, 1}},
      {TraceEvent{0, AccessType::Read, 0, 0, 1}},
      {TraceEvent{0, AccessType::Write, 0, 0, 1}},
      {TraceEvent{1, AccessType::Read, 0, 64, 1}},
      {TraceEvent{0, AccessType::CallExit, 0, 0, 1}},
      {TraceEvent{0, AccessType::CallEnter, 0, 16, 1}},
      {TraceEvent{0, AccessType::CallEnter, 0, 16, 2},
       TraceEvent{0, AccessType::CallExit, 0, 0, 1}},
      {TraceEvent{1, AccessType::CallEnter, 0, 16, 1},
       TraceEvent{1, AccessType::CallExit, 0, 0, 1}}};
  const Trace prefix{
      TraceEvent{0, AccessType::CallEnter, 0, 16, 1},
      TraceEvent{0, AccessType::Fetch, 0, 0, 10},
      TraceEvent{1, AccessType::Write, 0, 60, 8},
      TraceEvent{2, AccessType::Read, 0, 0, 2},
      TraceEvent{0, AccessType::CallExit, 0, 0, 1}};
  std::vector<Workload> out;
  for (const Trace& bad : malformed) {
    for (const bool behind_prefix : {false, true}) {
      Workload w{p, behind_prefix ? prefix : Trace{}};
      w.trace.append(bad.begin(), bad.end());
      out.push_back(std::move(w));
    }
  }
  return out;
}

}  // namespace ftspm::testing_support
