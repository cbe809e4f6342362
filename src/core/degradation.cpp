#include "core/degradation.h"

#include <sstream>

namespace mrcp {

const char* invocation_outcome_name(InvocationOutcome outcome) {
  switch (outcome) {
    case InvocationOutcome::kCpPrimary: return "cp-primary";
    case InvocationOutcome::kFallback: return "fallback";
    case InvocationOutcome::kParked: return "parked";
    case InvocationOutcome::kSkipped: return "skipped";
    case InvocationOutcome::kIdle: return "idle";
  }
  return "unknown";
}

void DegradationLedger::record(const InvocationRecord& rec) {
  records_.push_back(rec);
  switch (rec.outcome) {
    case InvocationOutcome::kCpPrimary: ++counts_.primary; break;
    case InvocationOutcome::kFallback: ++counts_.fallback; break;
    case InvocationOutcome::kParked: ++counts_.parked; break;
    case InvocationOutcome::kSkipped: ++counts_.skipped; break;
    case InvocationOutcome::kIdle: ++counts_.idle; break;
  }
  counts_.solve_attempts += static_cast<std::uint64_t>(rec.attempts);
  counts_.solve_wall_seconds += rec.solve_wall_seconds;
}

std::string DegradationLedger::summary() const {
  std::ostringstream os;
  os << "invocations=" << counts_.invocations()
     << " primary=" << counts_.primary << " fallback=" << counts_.fallback << " parked=" << counts_.parked
     << " skipped=" << counts_.skipped << " idle=" << counts_.idle
     << " attempts=" << counts_.solve_attempts;
  return os.str();
}

}  // namespace mrcp
