#include "ftspm/core/transfer_schedule.h"

#include <algorithm>
#include <sstream>

#include "ftspm/util/error.h"
#include "ftspm/util/format.h"

namespace ftspm {

const char* to_string(TransferCommand::Op op) noexcept {
  switch (op) {
    case TransferCommand::Op::MapIn: return "map-in";
    case TransferCommand::Op::WriteBack: return "write-back";
    case TransferCommand::Op::Unmap: return "unmap";
  }
  return "?";
}

namespace {

struct Resident {
  BlockId block;
  std::uint64_t base;
  std::uint64_t words;
  std::uint64_t last_use;
  std::size_t span_index;
};

struct RegionState {
  std::uint64_t capacity = 0;
  std::vector<Resident> residents;  // kept sorted by base

  /// First-fit hole able to hold `need` words, or nullopt.
  std::optional<std::uint64_t> find_hole(std::uint64_t need) const {
    std::uint64_t cursor = 0;
    for (const Resident& r : residents) {
      if (r.base - cursor >= need) return cursor;
      cursor = r.base + r.words;
    }
    if (capacity - cursor >= need) return cursor;
    return std::nullopt;
  }

  void insert(Resident r) {
    const auto pos = std::lower_bound(
        residents.begin(), residents.end(), r.base,
        [](const Resident& a, std::uint64_t base) { return a.base < base; });
    residents.insert(pos, r);
  }
};

}  // namespace

TransferSchedule TransferSchedule::generate(const Program& program,
                                            const ProgramProfile& profile,
                                            const MappingPlan& plan,
                                            const SpmLayout& layout) {
  FTSPM_REQUIRE(profile.blocks.size() == program.block_count(),
                "profile does not match program");
  FTSPM_REQUIRE(plan.block_to_region().size() == program.block_count(),
                "plan does not match program");

  TransferSchedule sched;
  std::vector<RegionState> regions(layout.region_count());
  for (RegionId r = 0; r < layout.region_count(); ++r)
    regions[r].capacity = layout.region(r).data_words();

  // A block is dirty while resident iff the program ever writes it.
  auto is_dirty = [&](BlockId id) { return profile.blocks[id].writes > 0; };
  // Resident lookup: block -> index into its region's resident list.
  std::vector<bool> resident(program.block_count(), false);

  auto evict = [&](RegionId rid, std::uint64_t seq) {
    RegionState& rs = regions[rid];
    FTSPM_CHECK(!rs.residents.empty(), "evict from an empty region");
    std::size_t victim = 0;
    for (std::size_t i = 1; i < rs.residents.size(); ++i)
      if (rs.residents[i].last_use < rs.residents[victim].last_use)
        victim = i;
    const Resident r = rs.residents[victim];
    if (is_dirty(r.block)) {
      sched.commands_.push_back(TransferCommand{
          seq, TransferCommand::Op::WriteBack, r.block, rid, r.base, r.words});
      sched.words_out_ += r.words;
    }
    sched.commands_.push_back(TransferCommand{
        seq, TransferCommand::Op::Unmap, r.block, rid, r.base, r.words});
    sched.spans_[r.span_index].unmap_index = seq;
    resident[r.block] = false;
    rs.residents.erase(rs.residents.begin() +
                       static_cast<std::ptrdiff_t>(victim));
  };

  std::uint64_t tick = 0;
  std::uint64_t seq = 0;  // index of the reference being replayed
  for (auto it = profile.reference_sequence.begin();
       it != profile.reference_sequence.end(); ++it, ++seq) {
    const BlockId id = *it;
    const RegionId rid = plan.block_to_region()[id];
    if (rid == kNoRegion) continue;  // cache-served
    RegionState& rs = regions[rid];
    ++tick;
    if (resident[id]) {
      for (Resident& r : rs.residents)
        if (r.block == id) r.last_use = tick;
      continue;
    }
    const std::uint64_t need = program.block(id).size_words();
    FTSPM_CHECK(need <= rs.capacity, "plan admitted an oversized block");
    std::optional<std::uint64_t> hole = rs.find_hole(need);
    while (!hole) {
      evict(rid, seq);
      hole = rs.find_hole(need);
    }
    sched.commands_.push_back(TransferCommand{
        seq, TransferCommand::Op::MapIn, id, rid, *hole, need});
    sched.words_in_ += need;
    rs.insert(Resident{id, *hole, need, tick,
                       sched.spans_.size()});
    sched.spans_.push_back(ResidencySpan{id, rid, *hole, seq, std::nullopt});
    resident[id] = true;
  }

  // Program exit: flush dirty residents (their spans stay open).
  const std::uint64_t end_seq = profile.reference_sequence.size();
  for (RegionId rid = 0; rid < layout.region_count(); ++rid) {
    for (const Resident& r : regions[rid].residents) {
      if (!is_dirty(r.block)) continue;
      sched.commands_.push_back(TransferCommand{end_seq,
                                                TransferCommand::Op::WriteBack,
                                                r.block, rid, r.base,
                                                r.words});
      sched.words_out_ += r.words;
    }
  }
  return sched;
}

std::vector<ResidencySpan> TransferSchedule::spans_of(BlockId block) const {
  std::vector<ResidencySpan> out;
  for (const ResidencySpan& s : spans_)
    if (s.block == block) out.push_back(s);
  return out;
}

std::string TransferSchedule::render(const Program& program,
                                     const SpmLayout& layout,
                                     std::size_t max_commands) const {
  std::ostringstream os;
  os << "Transfer schedule: " << commands_.size() << " commands, "
     << with_commas(words_in_) << " words in / " << with_commas(words_out_)
     << " words out\n";
  std::size_t shown = 0;
  for (const TransferCommand& c : commands_) {
    if (shown++ == max_commands) {
      os << "  ... (" << commands_.size() - max_commands
         << " more commands)\n";
      break;
    }
    os << "  @ref " << c.sequence_index << ": " << to_string(c.op) << " "
       << program.block(c.block).name << " -> "
       << layout.region(c.region).name << "[" << c.base_word << ".."
       << c.base_word + c.words - 1 << "]\n";
  }
  return os.str();
}

}  // namespace ftspm
