#include "ftspm/workload/trace.h"

namespace ftspm {

const char* to_string(AccessType type) noexcept {
  switch (type) {
    case AccessType::Fetch: return "fetch";
    case AccessType::Read: return "read";
    case AccessType::Write: return "write";
    case AccessType::CallEnter: return "call-enter";
    case AccessType::CallExit: return "call-exit";
  }
  return "?";
}

void Trace::add_chunk() {
  chunks_.push_back(
      std::make_unique_for_overwrite<TraceEvent[]>(kChunkEvents));
}

void validate_trace(const Program& program, const Trace& trace) {
  TraceChecker checker(program);
  for (std::size_t k = 0; k < trace.chunk_count(); ++k)
    for (const TraceEvent& e : trace.chunk(k)) checker.check(e);
  checker.finish();
}

}  // namespace ftspm
