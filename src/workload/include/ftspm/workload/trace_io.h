// Workload (program + trace) serialization.
//
// A small line-oriented text format so traces can be exported from the
// generators, inspected, edited, and fed back through the pipeline (or
// produced by external tooling — e.g. a real profiler — and mapped by
// MDA). Format, one record per line:
//
//   ftspm-trace v1
//   program <name>
//   block <name> <code|data|stack> <size_bytes>
//   ...
//   trace <event_count>
//   <F|R|W|C|X> <block_id> <offset> <repeat> <gap>
//   ...
//
// F = fetch, R = read, W = write, C = call-enter, X = call-exit.
// Parsing validates everything (block ids, offsets, marker balance)
// via the standard trace validator.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "ftspm/workload/trace.h"

namespace ftspm {

/// Most bytes a trace's blocks may declare in all (the profiler holds
/// 24 per data word); the largest suite program, jpeg, declares 33,792.
inline constexpr std::uint64_t kMaxTraceProgramBytes = std::uint64_t{1} << 24;

/// Serializes to the v1 text format.
std::string serialize_workload(const Workload& workload);

/// Streams the v1 text format to `os` without building it in memory
/// first. The caller checks `os`'s state afterwards.
void write_workload(std::ostream& os, const Workload& workload);

/// Parses the v1 text format; throws ftspm::Error with a line number
/// on any malformed input (InvalidArgument past kMaxTraceProgramBytes),
/// and validates the resulting trace.
Workload parse_workload(std::string_view text);

/// File convenience wrappers. Throw on I/O failure.
void save_workload(const Workload& workload, const std::string& path);
Workload load_workload(const std::string& path);

}  // namespace ftspm
