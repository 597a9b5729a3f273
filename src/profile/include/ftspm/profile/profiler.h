// Static profiling — the off-line phase's input (the paper's Table I).
//
// The profiler replays a workload trace on a nominal timebase (one
// cycle per word access plus declared compute gaps — mapping-independent
// by construction, like the paper's pre-characterisation run) and
// produces per-block statistics:
//
//  * reads / writes             — code-block instruction fetches are
//                                 reported in `reads`, matching Table I;
//  * references                 — maximal runs of accesses to the block
//                                 uninterrupted by another block of the
//                                 same class (code vs data);
//  * stack calls / max stack    — CallEnter counts and the deepest stack
//                                 growth observed inside an activation;
//  * lifetime                   — the paper's definition: total time the
//                                 block was the most recently referenced
//                                 block of its class;
//  * ACE time                   — architecturally correct execution
//                                 residency (Mukherjee et al., MICRO'03):
//                                 per-word write -> last-read intervals,
//                                 summed over the block. Feeds Eqs. 2-3;
//  * max word writes            — the hottest word's write count, the
//                                 quantity STT-RAM endurance dies by.
#pragma once

#include <cstdint>
#include <vector>

#include "ftspm/profile/reference_sequence.h"
#include "ftspm/workload/trace.h"

namespace ftspm {

/// Per-block profiling results (one Table I row).
struct BlockProfile {
  BlockId id = 0;
  std::uint64_t reads = 0;   ///< Word reads; instruction fetches for code.
  std::uint64_t writes = 0;
  std::uint64_t references = 0;
  std::uint64_t stack_calls = 0;
  std::uint32_t max_stack_bytes = 0;
  std::uint64_t lifetime_cycles = 0;
  std::uint64_t ace_cycles = 0;  ///< Sum of per-word vulnerable cycles.
  std::uint64_t max_word_writes = 0;

  std::uint64_t accesses() const noexcept { return reads + writes; }
  double avg_reads_per_reference() const noexcept {
    return references ? static_cast<double>(reads) / references : 0.0;
  }
  double avg_writes_per_reference() const noexcept {
    return references ? static_cast<double>(writes) / references : 0.0;
  }

  /// The paper's block susceptibility: references x lifetime
  /// (Algorithm 1 line 10).
  double susceptibility() const noexcept {
    return static_cast<double>(references) *
           static_cast<double>(lifetime_cycles);
  }
};

/// Whole-program profile.
struct ProgramProfile {
  std::vector<BlockProfile> blocks;  ///< Indexed by BlockId.
  std::uint64_t total_cycles = 0;    ///< Nominal timebase length.
  std::uint64_t total_accesses = 0;

  /// The block-reference sequence: one entry per reference run, in
  /// execution order (code and data runs interleaved). This is the
  /// "sequence of blocks accesses ... extracted from the static
  /// profiling information" the paper's on-line phase is generated
  /// from; the mapping pipeline replays it to price region
  /// time-sharing exactly. One byte per reference (ReferenceSequence).
  ReferenceSequence reference_sequence;

  const BlockProfile& block(BlockId id) const;

  /// ACE fraction of a block: vulnerable word-cycles over the block's
  /// total word-cycles. In [0, 1].
  double ace_fraction(const Program& program, BlockId id) const;
};

/// Profiles a workload. Deterministic; throws on malformed traces.
ProgramProfile profile_workload(const Workload& workload);

}  // namespace ftspm
