#include "ftspm/profile/profiler.h"

#include <algorithm>
#include <optional>

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

/// Per-word ACE bookkeeping for one data block.
struct WordState {
  std::vector<std::uint64_t> value_born;   ///< Cycle the live value was
                                           ///< written (0 = initial load).
  std::vector<std::uint64_t> last_read;    ///< Last read of that value.
  std::vector<std::uint64_t> write_count;  ///< Wear per word.
};

/// Tracks one open activation for max-stack accounting.
struct Activation {
  BlockId fn;
  std::uint32_t entry_depth_bytes;
  std::uint32_t max_depth_bytes;
};

}  // namespace

ProgramProfile profile_workload(const Workload& workload) {
  const Program& program = workload.program;
  validate_trace(program, workload.trace);

  ProgramProfile out;
  out.blocks.resize(program.block_count());
  for (std::size_t i = 0; i < out.blocks.size(); ++i)
    out.blocks[i].id = static_cast<BlockId>(i);

  std::vector<WordState> words(program.block_count());
  for (std::size_t i = 0; i < program.block_count(); ++i) {
    const Block& b = program.block(static_cast<BlockId>(i));
    if (b.is_data()) {
      words[i].value_born.assign(b.size_words(), 0);
      words[i].last_read.assign(b.size_words(), 0);
      words[i].write_count.assign(b.size_words(), 0);
    }
  }

  std::uint64_t now = 0;
  std::optional<BlockId> current_code, current_data;
  std::uint64_t code_since = 0, data_since = 0;
  std::vector<std::uint64_t> last_fetch(program.block_count(), 0);
  std::vector<Activation> activations;
  std::uint32_t stack_depth_bytes = 0;

  auto switch_current = [&](std::optional<BlockId>& current,
                            std::uint64_t& since, BlockId next) {
    if (current == next) return;
    if (current) out.blocks[*current].lifetime_cycles += now - since;
    current = next;
    since = now;
    ++out.blocks[next].references;
    out.reference_sequence.push_back(next);
  };

  for (const TraceEvent& e : workload.trace) {
    BlockProfile& bp = out.blocks[e.block];
    switch (e.type) {
      case AccessType::CallEnter: {
        ++bp.stack_calls;
        stack_depth_bytes += e.offset;  // offset carries frame bytes
        for (auto& act : activations)
          act.max_depth_bytes = std::max(act.max_depth_bytes,
                                         stack_depth_bytes);
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
        break;
      }
      case AccessType::Fetch: {
        switch_current(current_code, code_since, e.block);
        bp.reads += e.repeat;
        now += e.nominal_cycles();
        last_fetch[e.block] = now;
        break;
      }
      case AccessType::Read:
      case AccessType::Write: {
        switch_current(current_data, data_since, e.block);
        WordState& ws = words[e.block];
        const WordRun run(e.offset, e.repeat,
                          program.block(e.block).size_words());
        const std::uint64_t step = e.gap + 1ULL;
        const bool is_read = e.type == AccessType::Read;
        if (is_read)
          bp.reads += e.repeat;
        else
          bp.writes += e.repeat;
        // Visit k happens at now + (k + 1) * step. Per word, only the
        // run's first visit can close an ACE interval (a later one finds
        // the value this run wrote, never read) and only its last visit's
        // timestamp survives: so each distinct word is touched once.
        run.for_each_distinct([&](std::uint64_t first, std::uint64_t len,
                                  std::uint64_t visits,
                                  std::uint64_t last_visit) {
          const std::uint64_t t0 = now + (last_visit + 1) * step;
          std::uint64_t* const last_read = ws.last_read.data() + first;
          if (is_read) {
            for (std::uint64_t i = 0; i < len; ++i)
              last_read[i] = t0 + i * step;
            return;
          }
          std::uint64_t* const born = ws.value_born.data() + first;
          std::uint64_t* const writes = ws.write_count.data() + first;
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

  // Close open state at end-of-trace.
  if (current_code)
    out.blocks[*current_code].lifetime_cycles += now - code_since;
  if (current_data)
    out.blocks[*current_data].lifetime_cycles += now - data_since;
  for (std::size_t i = 0; i < program.block_count(); ++i) {
    const Block& b = program.block(static_cast<BlockId>(i));
    BlockProfile& bp = out.blocks[i];
    if (b.is_data()) {
      WordState& ws = words[i];
      for (std::uint32_t w = 0; w < b.size_words(); ++w) {
        if (ws.last_read[w] > ws.value_born[w])
          bp.ace_cycles += ws.last_read[w] - ws.value_born[w];
        bp.max_word_writes = std::max(bp.max_word_writes, ws.write_count[w]);
      }
    } else {
      // Instructions are read-only: every word is needed from program
      // start until the block's last fetch.
      bp.ace_cycles = static_cast<std::uint64_t>(b.size_words()) *
                      last_fetch[i];
    }
  }

  out.total_cycles = now;
  out.total_accesses = workload.total_accesses();
  return out;
}

}  // namespace ftspm
