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

std::uint64_t Workload::total_accesses() const noexcept {
  std::uint64_t n = 0;
  for (const auto& e : trace) n += e.accesses();
  return n;
}

std::uint64_t Workload::nominal_cycles() const noexcept {
  std::uint64_t n = 0;
  for (const auto& e : trace) n += e.nominal_cycles();
  return n;
}

void validate_trace(const Program& program,
                    const std::vector<TraceEvent>& trace) {
  TraceChecker checker(program);
  for (std::size_t i = 0; i < trace.size(); ++i) checker.check(trace[i], i);
  checker.finish();
}

}  // namespace ftspm
