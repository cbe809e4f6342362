#include "core/plan.h"

#include <map>
#include <sstream>

#include "common/schedule_check.h"

namespace mrcp {

std::string Plan::to_string() const {
  std::ostringstream os;
  os << "Plan{epoch=" << epoch << ", t=" << planned_at
     << ", tasks=" << tasks.size() << "}";
  return os.str();
}

std::string validate_plan(const Plan& plan, const Cluster& cluster,
                          const std::vector<const Job*>& jobs_by_id) {
  std::vector<ScheduleRow> rows;
  rows.reserve(plan.tasks.size());
  for (const PlannedTask& pt : plan.tasks) {
    const auto fail = [&pt](const char* what) {
      return "job " + std::to_string(pt.job) + " task " +
             std::to_string(pt.task_index) + ": " + what;
    };
    if (pt.resource < 0 || pt.resource >= cluster.size()) {
      return fail("resource out of range");
    }
    if (pt.start == kNoTime || pt.end <= pt.start) {
      return fail("bad interval");
    }
    if (pt.job < 0 || static_cast<std::size_t>(pt.job) >= jobs_by_id.size() ||
        jobs_by_id[static_cast<std::size_t>(pt.job)] == nullptr) {
      return fail("unknown job");
    }
    const Job& job = *jobs_by_id[static_cast<std::size_t>(pt.job)];
    if (pt.task_index < 0 ||
        static_cast<std::size_t>(pt.task_index) >= job.num_tasks()) {
      return fail("task index out of range");
    }
    const Task& task = job.task(static_cast<std::size_t>(pt.task_index));
    if (task.type != pt.type) return fail("task type mismatch");
    const Resource& host = cluster.resource(pt.resource);
    if (pt.duration() != host.scaled_duration(task.exec_time)) {
      return fail(
          "duration does not match task exec time scaled by the resource "
          "speed");
    }
    // A started task was legal when it was placed: s_j clamping and
    // placement constraints no longer bind it, nor do its workflow
    // predecessors. It stays under the map->reduce barrier.
    if (!pt.started && pt.type == TaskType::kMap &&
        pt.start < job.earliest_start) {
      return fail("map scheduled before s_j");
    }
    if (!pt.started && !host.admits(task)) {
      return fail("resource outside the task's candidates or racks");
    }
    rows.push_back(
        schedule_row(job, pt.task_index, pt.resource, pt.start, pt.end));
    if (pt.started) rows.back().order = kBarrier;
  }

  // Workflow edges between tasks present in the plan (a task listed twice
  // resolves to its last row). A plan omits completed tasks, so the
  // barrier covers the maps present only and edges with a completed
  // endpoint drop out: the RM guarantees those tasks ended before
  // `planned_at` <= any unstarted start.
  std::map<std::pair<JobId, int>, std::size_t> row_of;
  for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
    row_of[{plan.tasks[i].job, plan.tasks[i].task_index}] = i;
  }
  std::vector<RowEdge> edges;
  JobId job_id = kNoJob;
  for (const auto& entry : row_of) {
    if (entry.first.first == job_id) continue;
    job_id = entry.first.first;
    for (const auto& [before, after] :
         jobs_by_id[static_cast<std::size_t>(job_id)]->precedences) {
      const auto b = row_of.find({job_id, before});
      const auto a = row_of.find({job_id, after});
      if (b != row_of.end() && a != row_of.end()) {
        edges.push_back({b->second, a->second});
      }
    }
  }
  return check_schedule(rows, cluster.capacity_table(), edges);
}

}  // namespace mrcp
