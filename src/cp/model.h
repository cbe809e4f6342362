// CP model of the matchmaking-and-scheduling problem (paper Table 1).
//
// The model mirrors the paper's OPL formulation:
//   * every task is an interval of fixed duration with a demand q_t;
//   * the `alternative` constraint (which resource executes the task) is
//     represented by each task's candidate-resource set — exactly one
//     candidate is selected in a solution (Constraint 1/7);
//   * map tasks start at or after the job's earliest start s_j
//     (Constraint 2);
//   * a job's reduce tasks start after all its map tasks end
//     (Constraint 3);
//   * per-resource cumulative constraints cap concurrent map tasks at
//     c_r^mp and reduce tasks at c_r^rd (Constraints 5/6), enforced by
//     timetable propagation in the solver;
//   * N_j is set when the job's last task ends after d_j (Constraint 4);
//     the objective minimizes sum N_j (ties broken by total completion
//     time, which left-packs schedules the way set-times search does in
//     CP Optimizer).
//
// Tasks that have already started executing in the open system are
// *pinned*: their resource and start are fixed by an equality constraint
// (paper §V.B lines 11-12) and the earliest-start constraint no longer
// applies to them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace mrcp::cp {

/// Index types within one model instance.
using CpTaskIndex = std::int32_t;
using CpJobIndex = std::int32_t;
using CpResourceIndex = std::int32_t;

inline constexpr CpResourceIndex kAnyResource = -1;

enum class Phase : std::uint8_t { kMap = 0, kReduce = 1 };

struct CpTask {
  CpJobIndex job = -1;
  Phase phase = Phase::kMap;
  /// Base duration at baseline machine speed. The effective duration is
  /// assignment-dependent on heterogeneous clusters — use
  /// Model::duration_on(task, resource), never `start + duration`.
  Time duration;
  int demand = 1;
  /// Network-link units consumed while running; constrained by the
  /// resource's net_capacity when that is > 0 (a second cumulative
  /// dimension — the §VII "communication links" extension).
  int net_demand = 0;

  /// Candidate resources; empty means "any resource in the model"
  /// (the alternative constraint ranges over all of them).
  std::vector<CpResourceIndex> candidates;

  /// Pinned tasks are already running: resource and start are fixed.
  bool pinned = false;
  CpResourceIndex pinned_resource = kAnyResource;
  Time pinned_start;

  /// Anti-affinity group id, or -1. Tasks sharing a group must be placed
  /// on pairwise-distinct resources (dense model-global ids assigned via
  /// Model::set_affinity_group).
  int affinity_group = -1;

  /// External identity, carried through so the resource manager can map
  /// solutions back to its own job/task ids. Not interpreted by the solver.
  std::int64_t external_id = -1;
};

struct CpJob {
  Time earliest_start;      ///< s_j (already clamped to "now" by the RM)
  Time deadline;            ///< d_j
  std::int64_t external_id = -1;
  std::vector<CpTaskIndex> map_tasks;
  std::vector<CpTaskIndex> reduce_tasks;
};

struct CpResource {
  int map_capacity = 0;
  int reduce_capacity = 0;
  int net_capacity = 0;  ///< 0 = unconstrained links
  /// Machine speed in permille of the baseline (see scale_duration).
  int speed_permille = kBaseSpeedPermille;
  int capacity(Phase phase) const {
    return phase == Phase::kMap ? map_capacity : reduce_capacity;
  }
};

class Model {
 public:
  CpResourceIndex add_resource(int map_capacity, int reduce_capacity,
                               int net_capacity = 0,
                               int speed_permille = kBaseSpeedPermille);
  CpJobIndex add_job(Time earliest_start, Time deadline,
                     std::int64_t external_id = -1);
  CpTaskIndex add_task(CpJobIndex job, Phase phase, Time duration, int demand = 1,
                       std::int64_t external_id = -1, int net_demand = 0);
  /// Reserve storage for `jobs` jobs and `tasks` tasks in total.
  void reserve(std::size_t jobs, std::size_t tasks);

  /// Restrict the alternative for `task` to the given resources.
  void restrict_candidates(CpTaskIndex task, std::vector<CpResourceIndex> resources);

  /// Put `task` in anti-affinity group `group` (>= 0): tasks sharing a
  /// group must be placed on pairwise-distinct resources. Group ids must
  /// be dense model-global ids (num_affinity_groups() tracks the count).
  void set_affinity_group(CpTaskIndex task, int group);
  int num_affinity_groups() const { return num_affinity_groups_; }

  /// Effective duration of `task` when executed by `resource`: its base
  /// duration scaled by the machine's speed. This is THE duration used by
  /// timetables, solution ends and validators — `task.duration` alone is
  /// only meaningful at baseline speed.
  Time duration_on(CpTaskIndex task, CpResourceIndex resource) const {
    return scale_duration(
        tasks_[static_cast<std::size_t>(task)].duration,
        resources_[static_cast<std::size_t>(resource)].speed_permille);
  }

  /// Valid lower bound on the effective duration of `task` regardless of
  /// where it is eventually placed: its base duration scaled by the
  /// fastest machine in the model. (Restricting to the task's candidate
  /// set would be tighter but this stays O(1), and the bound only feeds
  /// must-be-late detection and ordering heuristics.)
  Time min_duration(CpTaskIndex task) const {
    const Time base = tasks_[static_cast<std::size_t>(task)].duration;
    return max_speed_permille_ > 0 ? scale_duration(base, max_speed_permille_)
                                   : base;
  }

  /// Pin a task that has already started executing (paper §V.B line 11):
  /// fixes its resource and start time.
  void pin_task(CpTaskIndex task, CpResourceIndex resource, Time start);

  /// General precedence: `after` may start only once `before` has ended.
  /// This extends the implicit MapReduce rule (reduces after all maps of
  /// the job) to arbitrary workflow DAGs — the paper's §VII future-work
  /// generalization. The combined graph must be acyclic (validate()).
  void add_precedence(CpTaskIndex before, CpTaskIndex after);

  const std::vector<CpTaskIndex>& predecessors(CpTaskIndex task) const {
    return preds_[static_cast<std::size_t>(task)];
  }
  std::size_t num_precedences() const { return num_precedences_; }

  std::size_t num_tasks() const { return tasks_.size(); }
  std::size_t num_jobs() const { return jobs_.size(); }
  std::size_t num_resources() const { return resources_.size(); }

  const CpTask& task(CpTaskIndex i) const {
    return tasks_[static_cast<std::size_t>(i)];
  }
  const CpJob& job(CpJobIndex i) const { return jobs_[static_cast<std::size_t>(i)]; }
  const CpResource& resource(CpResourceIndex i) const {
    return resources_[static_cast<std::size_t>(i)];
  }
  const std::vector<CpTask>& tasks() const { return tasks_; }
  const std::vector<CpJob>& jobs() const { return jobs_; }
  const std::vector<CpResource>& resources() const { return resources_; }

  /// Earliest time `task` may start, from the static constraints alone
  /// (s_j for maps; for reduces, the lower bound implied by the job's map
  /// ends assuming unbounded capacity). Pinned tasks return their start.
  Time static_earliest_start(CpTaskIndex task) const;

  /// Lower bound on the job's completion time from static constraints
  /// (ignores capacity): the latest static_earliest_start() + duration
  /// over the job's tasks, or the energetic bound if larger. One pass
  /// over the job's tasks and their direct predecessors. Used by the
  /// search to detect must-be-late jobs.
  Time completion_lower_bound(CpJobIndex job) const;

  /// True when any resource has net_capacity > 0: the cluster models
  /// communication links. A net-demanding task must then fit its
  /// resource's link capacity — a zero-capacity resource has none. With
  /// every capacity zero, links are unconstrained and net_demand is
  /// ignored everywhere.
  bool links_constrained() const;

  /// Structural validation; empty string when consistent.
  std::string validate() const;

  /// True when any resource runs at a non-baseline speed: durations are
  /// assignment-dependent.
  bool hetero_speeds() const { return hetero_speeds_; }

 private:
  std::vector<CpTask> tasks_;
  std::vector<CpJob> jobs_;
  std::vector<CpResource> resources_;
  std::vector<std::vector<CpTaskIndex>> preds_;  ///< per-task predecessors
  std::size_t num_precedences_ = 0;
  int num_affinity_groups_ = 0;
  int max_speed_permille_ = 0;  ///< fastest machine seen; 0 = no resources
  bool hetero_speeds_ = false;
};

}  // namespace mrcp::cp
