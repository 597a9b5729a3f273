// The profiled block-reference sequence, computed the plain way: one
// std::vector<BlockId> entry per reference run. And a workload whose
// block ids reach past one byte, for the sequence's escape path.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ftspm/workload/trace.h"

namespace ftspm::testing_support {

/// One id per maximal run of accesses to a block, code (fetches) and
/// data (reads, writes) tracked apart, call markers skipped: what
/// profile_workload's reference_sequence must hold for `trace`.
inline std::vector<BlockId> plain_reference_walk(const Trace& trace) {
  std::optional<BlockId> code, data;
  std::vector<BlockId> out;
  for (const TraceEvent e : trace) {
    if (e.is_marker()) continue;
    std::optional<BlockId>& current =
        e.type == AccessType::Fetch ? code : data;
    if (current == e.block) continue;
    current = e.block;
    out.push_back(e.block);
  }
  return out;
}

/// A 300-block program (even ids code, odd ids data, 8 words each)
/// whose trace references ids 0, 254, 255, 256 and 299, code and data
/// interleaved, with repeated runs and a call, so its reference
/// sequence holds both one-byte ids and escaped ones, back to back.
inline Workload wide_id_workload() {
  std::vector<Block> blocks;
  for (int i = 0; i < 300; ++i)
    blocks.push_back(Block{"b" + std::to_string(i),
                           i % 2 == 0 ? BlockKind::Code : BlockKind::Data,
                           64});
  const auto fetch = [](BlockId b, std::uint32_t repeat) {
    return TraceEvent{b, AccessType::Fetch, 0, 0, repeat};
  };
  const auto read = [](BlockId b, std::uint32_t offset) {
    return TraceEvent{b, AccessType::Read, 1, offset, 3};
  };
  const auto write = [](BlockId b, std::uint32_t offset) {
    return TraceEvent{b, AccessType::Write, 0, offset, 2};
  };
  return Workload{
      Program("wide", std::move(blocks)),
      {fetch(0, 4), read(255, 0), fetch(254, 2), write(299, 5),
       fetch(256, 8), fetch(256, 1), read(299, 7), write(255, 1),
       TraceEvent{254, AccessType::CallEnter, 0, 32, 1}, fetch(254, 3),
       read(1, 2), TraceEvent{254, AccessType::CallExit, 0, 0, 1},
       fetch(0, 1), write(253, 0), read(255, 4), fetch(256, 2),
       fetch(0, 5), read(299, 0), read(299, 1)}};
}

}  // namespace ftspm::testing_support
