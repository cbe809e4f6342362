#include "cp/solution.h"

#include <algorithm>

#include "common/check.h"
#include "common/schedule_check.h"

namespace mrcp::cp {

void evaluate_solution(const Model& model, Solution& sol) {
  const auto num_jobs = model.num_jobs();
  sol.job_completion.assign(num_jobs, Time{0});
  sol.job_late.assign(num_jobs, 0);
  sol.num_late = 0;
  sol.total_completion = Time{0};

  MRCP_CHECK(sol.placements.size() == model.num_tasks());
  for (std::size_t ti = 0; ti < model.num_tasks(); ++ti) {
    const CpTask& t = model.task(static_cast<CpTaskIndex>(ti));
    const TaskPlacement& p = sol.placements[ti];
    MRCP_CHECK_MSG(p.decided(), "evaluate_solution: undecided task");
    const Time end =
        p.start + model.duration_on(static_cast<CpTaskIndex>(ti), p.resource);
    auto& completion = sol.job_completion[static_cast<std::size_t>(t.job)];
    completion = std::max(completion, end);
  }
  for (std::size_t ji = 0; ji < num_jobs; ++ji) {
    const CpJob& j = model.job(static_cast<CpJobIndex>(ji));
    if (sol.job_completion[ji] > j.deadline) {
      sol.job_late[ji] = 1;
      ++sol.num_late;
    }
    sol.total_completion += sol.job_completion[ji];
  }
  sol.valid = true;
}

std::string validate_solution(const Model& model, const Solution& sol) {
  if (sol.placements.size() != model.num_tasks()) {
    return "placement count != task count";
  }
  std::vector<ScheduleRow> rows;
  rows.reserve(model.num_tasks());
  std::vector<RowEdge> edges;
  for (std::size_t ti = 0; ti < model.num_tasks(); ++ti) {
    const auto task = static_cast<CpTaskIndex>(ti);
    const CpTask& t = model.task(task);
    const TaskPlacement& p = sol.placements[ti];
    const auto fail = [ti](const char* what) {
      return "task " + std::to_string(ti) + ": " + what;
    };
    if (!p.decided()) return fail("undecided");
    if (p.resource < 0 ||
        static_cast<std::size_t>(p.resource) >= model.num_resources()) {
      return fail("resource out of range");
    }
    // Constraint 1/7: the chosen resource must be a candidate.
    if (!t.candidates.empty() &&
        std::find(t.candidates.begin(), t.candidates.end(), p.resource) ==
            t.candidates.end()) {
      return fail("resource not among candidates");
    }
    if (t.pinned &&
        (p.resource != t.pinned_resource || p.start != t.pinned_start)) {
      return fail("pinning violated");
    }
    // Constraint 2: map tasks start at/after s_j (pinned tasks exempt,
    // paper §V.B line 12).
    if (!t.pinned && t.phase == Phase::kMap &&
        p.start < model.job(t.job).earliest_start) {
      return fail("map starts before s_j");
    }
    if (p.start < Time{0}) return fail("negative start");
    // A pinned task runs since before the re-plan: its end still bounds
    // its successors, but it answers to neither the barrier nor its own
    // predecessors.
    const bool map = t.phase == Phase::kMap;
    rows.push_back({.job = t.job,
                    .task = task,
                    .resource = p.resource,
                    .dim = map ? SlotDim::kMap : SlotDim::kReduce,
                    .order = static_cast<std::uint8_t>(
                        !t.pinned ? kBarrier | kPrecedence
                        : map     ? kBarrier
                                  : 0),
                    .start = p.start,
                    .end = p.start + model.duration_on(task, p.resource),
                    .demand = t.demand,
                    .net_demand = t.net_demand,
                    .affinity_group = t.affinity_group});
    for (CpTaskIndex pred : model.predecessors(task)) {
      edges.push_back({static_cast<std::size_t>(pred), ti});
    }
  }
  std::vector<ResourceCapacity> capacity;
  capacity.reserve(model.num_resources());
  for (const CpResource& r : model.resources()) {
    capacity.push_back({r.map_capacity, r.reduce_capacity, r.net_capacity});
  }
  return check_schedule(rows, capacity, edges);
}

}  // namespace mrcp::cp
