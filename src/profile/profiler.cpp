#include "ftspm/profile/profiler.h"

#include <algorithm>

#include "ftspm/util/error.h"

namespace ftspm {

const BlockProfile& ProgramProfile::block(BlockId id) const {
  FTSPM_REQUIRE(id < blocks.size(), "block id out of range");
  return blocks[id];
}

double ProgramProfile::ace_fraction(const Program& program,
                                    BlockId id) const {
  const BlockProfile& bp = block(id);
  const std::uint64_t words = program.block(id).size_words();
  if (words == 0 || total_cycles == 0) return 0.0;
  const double denom =
      static_cast<double>(words) * static_cast<double>(total_cycles);
  return std::min(1.0, static_cast<double>(bp.ace_cycles) / denom);
}

namespace {

/// One block's row of the per-call block table. A data block's rows
/// point at its words' ACE state, three word-indexed arrays in one
/// allocation shared by all blocks.
struct ProfileRow {
  std::uint64_t* value_born = nullptr;   ///< Cycle the live value was
                                         ///< written (0 = initial load).
  std::uint64_t* last_read = nullptr;    ///< Last read of that value.
  std::uint64_t* write_count = nullptr;  ///< Wear per word.
  std::uint64_t last_fetch = 0;          ///< Code blocks: end of the last
                                         ///< fetch run.
  std::uint32_t words = 0;
  bool is_data = false;
};

/// Tracks one open activation for max-stack accounting.
struct Activation {
  BlockId fn;
  std::uint32_t entry_depth_bytes;
  std::uint32_t max_depth_bytes;  ///< Deepest point so far, callees'
                                  ///< included once they return.
};

/// No block: the class (code or data) has not been referenced yet.
constexpr BlockId kNoBlock = ~BlockId{0};

}  // namespace

ProgramProfile profile_workload(const Workload& workload) {
  const Program& program = workload.program;
  const std::size_t n_blocks = program.block_count();

  ProgramProfile out;
  out.blocks.resize(n_blocks);
  for (std::size_t i = 0; i < n_blocks; ++i)
    out.blocks[i].id = static_cast<BlockId>(i);

  std::vector<ProfileRow> rows(n_blocks);
  std::size_t data_words = 0;
  for (std::size_t i = 0; i < n_blocks; ++i) {
    const Block& b = program.blocks()[i];
    rows[i].words = b.size_words();
    rows[i].is_data = b.is_data();
    if (b.is_data()) data_words += b.size_words();
  }
  std::vector<std::uint64_t> word_state(3 * data_words, 0);
  std::uint64_t* next_state = word_state.data();
  for (ProfileRow& row : rows) {
    if (!row.is_data) continue;
    row.value_born = next_state;
    row.last_read = next_state + row.words;
    row.write_count = next_state + 2 * row.words;
    next_state += 3 * row.words;
  }

  std::uint64_t now = 0;
  std::uint64_t total_accesses = 0;
  BlockId current_code = kNoBlock, current_data = kNoBlock;
  std::uint64_t code_since = 0, data_since = 0;
  std::vector<Activation> activations;
  std::uint32_t stack_depth_bytes = 0;

  auto switch_current = [&](BlockId& current, std::uint64_t& since,
                            BlockId next) {
    if (current == next) return;
    if (current != kNoBlock) out.blocks[current].lifetime_cycles += now - since;
    current = next;
    since = now;
    ++out.blocks[next].references;
    out.reference_sequence.push_back(next);
  };

  // One walk: each event is validated (exactly as validate_trace would,
  // so a malformed trace throws the same error at the same event), then
  // profiled.
  TraceChecker checker(program);
  const Trace& trace = workload.trace;
  // Each event switches at most one current block, so the trace's event
  // count bounds the sequence: reserved once, the vector never regrows
  // (and so never holds two copies), and pages it leaves untouched
  // cost no memory.
  out.reference_sequence.reserve(trace.size());
  for (std::size_t k = 0; k < trace.chunk_count(); ++k) {
    for (const TraceEvent e : trace.chunk(k)) {
      checker.check(e);
      BlockProfile& bp = out.blocks[e.block];
      ProfileRow& row = rows[e.block];
      switch (e.type) {
        case AccessType::CallEnter: {
          ++bp.stack_calls;
          stack_depth_bytes += e.offset;  // offset carries frame bytes
          activations.push_back(
              Activation{e.block, stack_depth_bytes - e.offset,
                         stack_depth_bytes});
          break;
        }
        case AccessType::CallExit: {
          FTSPM_CHECK(!activations.empty(), "exit without activation");
          const Activation act = activations.back();
          activations.pop_back();
          const std::uint32_t needed =
              act.max_depth_bytes - act.entry_depth_bytes;
          BlockProfile& fn = out.blocks[act.fn];
          fn.max_stack_bytes = std::max(fn.max_stack_bytes, needed);
          stack_depth_bytes = act.entry_depth_bytes;
          // The caller was open for the whole of this activation, so its
          // deepest point is at least this activation's.
          if (!activations.empty())
            activations.back().max_depth_bytes = std::max(
                activations.back().max_depth_bytes, act.max_depth_bytes);
          break;
        }
        case AccessType::Fetch: {
          switch_current(current_code, code_since, e.block);
          bp.reads += e.repeat;
          total_accesses += e.repeat;
          now += e.nominal_cycles();
          row.last_fetch = now;
          break;
        }
        case AccessType::Read:
        case AccessType::Write: {
          switch_current(current_data, data_since, e.block);
          const WordRun run(e.offset, e.repeat, row.words);
          const std::uint64_t step = e.gap + 1ULL;
          const bool is_read = e.type == AccessType::Read;
          if (is_read)
            bp.reads += e.repeat;
          else
            bp.writes += e.repeat;
          total_accesses += e.repeat;
          // Visit k happens at now + (k + 1) * step. Per word, only the
          // run's first visit can close an ACE interval (a later one finds
          // the value this run wrote, never read) and only its last visit's
          // timestamp survives: so each distinct word is touched once.
          run.for_each_distinct([&](std::uint64_t first, std::uint64_t len,
                                    std::uint64_t visits,
                                    std::uint64_t last_visit) {
            const std::uint64_t t0 = now + (last_visit + 1) * step;
            std::uint64_t* const last_read = row.last_read + first;
            if (is_read) {
              for (std::uint64_t i = 0; i < len; ++i)
                last_read[i] = t0 + i * step;
              return;
            }
            std::uint64_t* const born = row.value_born + first;
            std::uint64_t* const writes = row.write_count + first;
            std::uint64_t ace = 0;
            for (std::uint64_t i = 0; i < len; ++i) {
              // Close the previous value's vulnerable interval. Whether it
              // was read is data-dependent and unpredictable, so the
              // interval is masked in rather than branched on.
              const std::uint64_t lr = last_read[i];
              const std::uint64_t vb = born[i];
              ace += (lr - vb) & (0 - static_cast<std::uint64_t>(lr > vb));
              born[i] = t0 + i * step;
              last_read[i] = 0;
              writes[i] += visits;
            }
            bp.ace_cycles += ace;
          });
          now += e.nominal_cycles();
          break;
        }
      }
    }
  }
  checker.finish();

  // Close open state at end-of-trace.
  if (current_code != kNoBlock)
    out.blocks[current_code].lifetime_cycles += now - code_since;
  if (current_data != kNoBlock)
    out.blocks[current_data].lifetime_cycles += now - data_since;
  for (std::size_t i = 0; i < n_blocks; ++i) {
    const ProfileRow& row = rows[i];
    BlockProfile& bp = out.blocks[i];
    if (row.is_data) {
      for (std::uint32_t w = 0; w < row.words; ++w) {
        if (row.last_read[w] > row.value_born[w])
          bp.ace_cycles += row.last_read[w] - row.value_born[w];
        bp.max_word_writes = std::max(bp.max_word_writes, row.write_count[w]);
      }
    } else {
      // Instructions are read-only: every word is needed from program
      // start until the block's last fetch.
      bp.ace_cycles = static_cast<std::uint64_t>(row.words) * row.last_fetch;
    }
  }

  out.total_cycles = now;
  out.total_accesses = total_accesses;
  return out;
}

}  // namespace ftspm
