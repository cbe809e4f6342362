// MapReduce job/task model (paper §III.A).
//
// A job j carries an SLA: earliest start time s_j, per-task execution
// times e_t, and an end-to-end deadline d_j. Tasks come in two phases;
// every reduce task of a job may start only after ALL of the job's map
// tasks have completed. Task resource requirement q_t is 1 by default
// (paper: "the value of q_t is typically set to one").
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace mrcp {

enum class TaskType : std::uint8_t { kMap = 0, kReduce = 1 };

const char* task_type_name(TaskType type);

/// One map or reduce task. Immutable workload data; runtime scheduling
/// state (assigned resource/start, started/completed flags) lives in the
/// resource manager, not here.
struct Task {
  TaskType type = TaskType::kMap;
  Time exec_time;  ///< e_t, in ticks; includes input read + shuffle (paper §III.A)
  int res_req = 1;     ///< q_t, slots consumed while running
  /// Network-link bandwidth units consumed while running (the paper's
  /// §VII "communication links" extension). 0 = no link usage. Only
  /// constrained on resources with net_capacity > 0.
  int net_demand = 0;
  /// Data-locality candidate set: resource ids this task may run on.
  /// Empty = any resource. Ids must exist in the cluster and be distinct
  /// (validate_workload).
  std::vector<ResourceId> candidates;
  /// Rack-locality set: racks this task may run in. Empty = any rack.
  /// Composes with `candidates` — the effective host set is their
  /// intersection.
  std::vector<int> racks;
  /// Anti-affinity group within the job: tasks sharing a non-negative
  /// group id must run on pairwise-distinct resources. -1 = no group.
  int affinity_group = -1;

  /// True if this task carries any placement restriction.
  bool placement_constrained() const {
    return !candidates.empty() || !racks.empty() || affinity_group >= 0;
  }
};

/// A task of the given type and execution time, every other field at its
/// default (unit slot demand, no links, no placement restriction).
inline Task make_task(TaskType type, Time exec_time) {
  Task t;
  t.type = type;
  t.exec_time = exec_time;
  return t;
}

/// A MapReduce job with its SLA.
struct Job {
  JobId id = kNoJob;
  Time arrival_time;        ///< v_j: when the job enters the system
  Time earliest_start;      ///< s_j >= v_j: SLA earliest start (AR requests)
  Time deadline;            ///< d_j: end-to-end SLA deadline

  std::vector<Task> map_tasks;
  std::vector<Task> reduce_tasks;

  /// Extra user-specified precedence constraints between this job's
  /// tasks, as (before, after) flat indices: `after` may start only once
  /// `before` has completed. These come *in addition to* the implicit
  /// MapReduce rule (every reduce waits for all maps) and enable general
  /// multi-stage workflows — the generalization the paper's §VII lists
  /// as future work. The combined precedence graph must be acyclic
  /// (checked by validate_job).
  std::vector<std::pair<int, int>> precedences;

  std::size_t num_map_tasks() const { return map_tasks.size(); }
  std::size_t num_reduce_tasks() const { return reduce_tasks.size(); }
  std::size_t num_tasks() const { return map_tasks.size() + reduce_tasks.size(); }

  /// Task lookup by phase-local index; maps come first in the flat order.
  const Task& task(std::size_t flat_index) const;

  Time total_map_time() const;
  Time total_reduce_time() const;
  Time max_map_time() const;
  Time max_reduce_time() const;

  /// Sum of all task execution times (used in the laxity formula
  /// L_j = d_j - s_j - sum of e_t, paper §VI.B).
  Time total_work() const { return total_map_time() + total_reduce_time(); }

  Time laxity() const { return deadline - earliest_start - total_work(); }

  /// TE: minimum execution time of the job assuming it is alone on a
  /// cluster with `map_slots` map slots and `reduce_slots` reduce slots
  /// (paper Table 3). Computed as the LPT list-schedule makespan of the
  /// map phase plus that of the reduce phase, since reduces must wait for
  /// all maps. Jobs with zero reduce tasks contribute only the map phase.
  Time min_execution_time(int map_slots, int reduce_slots) const;

  std::string to_string() const;
};

/// LPT (longest processing time first) list-schedule makespan of the given
/// durations on `machines` identical machines. Exposed for testing and for
/// the MinEDF-WC completion-time estimator.
Time lpt_makespan(std::vector<Time> durations, int machines);

/// Validate internal consistency of a job (non-negative times,
/// s_j >= v_j, d_j > s_j, positive task durations, res_req >= 1).
/// Returns an empty string when valid, else a description of the problem.
std::string validate_job(const Job& job);

}  // namespace mrcp
