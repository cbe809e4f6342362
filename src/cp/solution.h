// Solution of a CP model: one (resource, start) placement per task, plus
// the derived per-job completions and lateness indicators N_j.
#pragma once

#include <string>
#include <vector>

#include "cp/model.h"

namespace mrcp::cp {

struct TaskPlacement {
  CpResourceIndex resource = kAnyResource;
  Time start = kNoTime;

  bool decided() const { return resource != kAnyResource && start != kNoTime; }
};

struct Solution {
  std::vector<TaskPlacement> placements;  ///< indexed by CpTaskIndex
  std::vector<Time> job_completion;       ///< indexed by CpJobIndex
  std::vector<std::uint8_t> job_late;     ///< N_j

  int num_late = 0;            ///< objective: sum N_j
  Time total_completion;       ///< tie-break: sum of job completions
  bool valid = false;

  /// Lexicographic objective comparison (fewer late jobs, then earlier
  /// total completion).
  bool better_than(const Solution& other) const {
    if (!valid) return false;
    if (!other.valid) return true;
    if (num_late != other.num_late) return num_late < other.num_late;
    return total_completion < other.total_completion;
  }
};

/// Derive job completions / lateness / objective from the placements.
/// Every task must be decided.
void evaluate_solution(const Model& model, Solution& sol);

/// Full validation against every constraint of the model (Table 1):
/// (1/7) candidate resources, pinning, (2) s_j for unpinned maps, then the
/// shared checks of check_schedule — (3) the barrier and workflow
/// precedences (pinned tasks exempt), (5/6) slot and link capacity, and
/// anti-affinity. Returns empty string if the solution satisfies all.
std::string validate_solution(const Model& model, const Solution& sol);

}  // namespace mrcp::cp
