// The output of one MRCP-RM matchmaking-and-scheduling invocation: a
// complete mapping of every live task to a resource and start time.
//
// Tasks are identified by (job id, flat task index) where flat index
// enumerates the job's map tasks first, then its reduce tasks — matching
// Job::task().
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "mapreduce/cluster.h"
#include "mapreduce/job.h"

namespace mrcp {

struct PlannedTask {
  JobId job = kNoJob;
  int task_index = -1;  ///< flat index within the job (maps, then reduces)
  TaskType type = TaskType::kMap;
  ResourceId resource = kNoResource;
  Time start = kNoTime;
  Time end = kNoTime;
  bool started = false;  ///< start <= invocation time: pinned, not re-planned

  Time duration() const { return end - start; }
};

struct Plan {
  /// Monotonically increasing per-RM; the simulator uses it to discard
  /// start events that belong to superseded plans.
  std::uint64_t epoch = 0;
  Time planned_at;
  std::vector<PlannedTask> tasks;
  /// Live (non-completed) tasks deliberately absent from `tasks`, as
  /// (job id, flat task index) in job-then-task order: the unstarted work
  /// of parked jobs that no currently-up resource can host
  /// (docs/degraded_mode.md). The driver cancels any stale end event it
  /// still holds for exactly these tasks; the RM retries the parked work
  /// via next_deferred_release() and on every repair.
  std::vector<std::pair<JobId, int>> parked;

  std::string to_string() const;
};

/// Validate a plan against a cluster and the jobs it schedules: matching
/// host-scaled durations, plus s_j and placement constraints for tasks
/// that have not started, then the shared checks of check_schedule
/// (capacity, barrier, precedences of unstarted tasks, anti-affinity).
/// `jobs_by_id` maps job id -> Job for every job in the plan. Returns
/// empty string when the plan is consistent.
std::string validate_plan(const Plan& plan, const Cluster& cluster,
                          const std::vector<const Job*>& jobs_by_id);

}  // namespace mrcp
