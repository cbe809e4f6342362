// MinEDF-WC — the comparison baseline (Verma et al. [8], paper §VI.B.1).
//
// An earliest-deadline-first slot scheduler with work conservation:
//   * jobs are served in EDF order;
//   * each job is granted the *minimum* number of map/reduce slots that
//     its ARIA completion-time estimate says it needs to meet its
//     deadline (aria_estimator.h);
//   * spare slots are handed out work-conservingly to EDF-first jobs with
//     pending tasks;
//   * slots are reclaimed (de-allocated) from jobs as their running tasks
//     finish whenever a more urgent job needs them — tasks are never
//     preempted, matching [8].
//
// Unlike MRCP-RM this scheduler is *dynamic*: it holds no future plan and
// makes decisions only when a job arrives, a job becomes eligible
// (s_j reached), or a task finishes. The simulator drives it through
// submit()/on_task_finished() and launches tasks via the callback.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "baseline/aria_estimator.h"
#include "common/types.h"
#include "mapreduce/cluster.h"
#include "mapreduce/job.h"

namespace mrcp::baseline {

/// Order in which a job's pending tasks are dispatched to freed slots.
enum class TaskDispatchOrder {
  kFifo,  ///< input-split order — faithful to Hadoop/ARIA, which does not
          ///< know individual task durations at dispatch time
  kLpt,   ///< longest task first — duration-aware ablation variant
};

/// How many slots a job is granted in the first (pre-work-conserving)
/// pass.
enum class AllocationPolicy {
  /// The minimum per the ARIA estimate (MinEDF of [8]).
  kMinimal,
  /// Everything it can use (plain EDF with work conservation — a naive
  /// baseline that ignores deadline-aware sizing entirely; kept for
  /// comparison benches).
  kMaximal,
};

struct MinEdfConfig {
  /// Which ARIA estimate drives minimal slot allocation. kAverage is
  /// faithful to Verma et al. [8]; kUpper is the conservative ablation.
  AriaBound bound = AriaBound::kAverage;
  TaskDispatchOrder task_order = TaskDispatchOrder::kFifo;
  AllocationPolicy allocation = AllocationPolicy::kMinimal;
};

struct MinEdfStats {
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t tasks_launched = 0;
  std::uint64_t tasks_requeued = 0;  ///< killed by failures, re-queued
  std::uint64_t tasks_refused = 0;   ///< launch refused (placement), re-queued
  std::uint64_t resource_down_events = 0;
  std::uint64_t resource_up_events = 0;
  double total_sched_seconds = 0.0;

  double average_sched_seconds_per_job() const {
    if (jobs_submitted == 0) return 0.0;
    return total_sched_seconds / static_cast<double>(jobs_submitted);
  }
};

class MinEdfWcScheduler {
 public:
  /// Called for every task launch. `base_end` is start + the task's
  /// baseline-speed duration; the driver picks the concrete slot and
  /// returns the *actual* end (scaled by the host's speed factor), which
  /// it must report back via on_task_finished(job, task_index, now) at
  /// that time. Returning kNoTime refuses the launch (no eligible slot —
  /// placement constraints); the task is re-queued and the granted slot
  /// goes unused this dispatch. On a homogeneous, unconstrained cluster
  /// the driver simply returns base_end.
  using LaunchFn = std::function<Time(JobId job, int task_index, Time start,
                                      Time base_end)>;

  MinEdfWcScheduler(const Cluster& cluster, LaunchFn launch,
                    MinEdfConfig config = {});

  void submit(const Job& job, Time now);
  void on_task_finished(JobId job, int task_index, Time now);

  /// A resource with the given slot counts failed: its slots leave the
  /// pool. Free counters may go transiently negative until the driver
  /// reports every task that was running on it via handle_task_killed()
  /// (or a same-tick on_task_finished()); no dispatch happens here —
  /// call wake(now) once the failure is fully processed.
  void handle_resource_down(int map_slots, int reduce_slots);
  /// The resource was repaired: its (idle) slots rejoin the pool. Call
  /// wake(now) afterwards to hand them out.
  void handle_resource_up(int map_slots, int reduce_slots);

  /// A running task was killed at `now` by a resource failure. Its slot
  /// is accounted back (see handle_resource_down) and the task re-enters
  /// the front of its phase queue, to be re-dispatched EDF-style. The
  /// task's previously planned end time identifies it among the job's
  /// running tasks. No dispatch — call wake(now) after the batch.
  void handle_task_killed(JobId job, int task_index, Time planned_end,
                          Time now);

  /// Earliest future s_j among jobs not yet eligible; kNoTime when all
  /// jobs are eligible. The driver should call wake() at that time.
  Time next_eligible_time(Time now) const;
  /// Re-run the dispatch loop (used for s_j wakeups).
  void wake(Time now) { dispatch(now); }

  int free_map_slots() const { return free_map_; }
  int free_reduce_slots() const { return free_reduce_; }
  std::size_t live_jobs() const { return jobs_.size(); }
  const MinEdfStats& stats() const { return stats_; }

 private:
 public:
  /// One phase's dispatch queue. Tasks are consumed from the front only,
  /// so a head index plus precomputed suffix (sum, max) arrays give the
  /// remaining-work statistics in O(1) — dispatch stays cheap even for
  /// jobs with thousands of tasks.
  struct PhaseQueue {
    std::vector<int> order;        ///< flat task indices, dispatch order
    std::vector<Time> suffix_sum;  ///< sum of durations from position i
    std::vector<Time> suffix_max;  ///< max duration from position i
    std::size_t head = 0;
    std::vector<Time> running_ends;  ///< end times of running tasks

    std::size_t pending() const { return order.size() - head; }
    int pop_front() { return order[head++]; }
    /// Push a previously popped task back to the front (failure
    /// recovery); O(1), restores the suffix statistics for its slot.
    void requeue(int task_index, Time duration);
    /// Remaining work = pending durations + residuals of running tasks.
    PhaseStats remaining_stats(Time now) const;
  };

 private:
  struct JobRun {
    Job job;
    PhaseQueue maps;
    PhaseQueue reduces;
    int running_maps = 0;
    int running_reduces = 0;
    int maps_unfinished = 0;  ///< pending + running map tasks

    bool reduces_eligible() const { return maps_unfinished == 0; }
    bool finished() const {
      return maps_unfinished == 0 && reduces.pending() == 0 &&
             running_reduces == 0;
    }
  };

  /// One live job in the EDF index, ordered by (deadline, id).
  struct EdfEntry {
    Time deadline;
    JobId id;
    JobRun* run;  ///< node of jobs_, stable until the job completes
  };
  static bool edf_before(const EdfEntry& a, const EdfEntry& b);
  /// Slots one dispatch grants a job, parallel to edf_.
  struct Grant {
    int maps = 0;
    int reduces = 0;
  };

  void dispatch(Time now);
  /// Slots the job should hold per the configured allocation policy.
  SlotProfile target_profile(const JobRun& run, Time now) const;
  /// Pop and launch `count` tasks of `queue`; refused launches go back to
  /// the front of the queue in their original order.
  void launch_from(JobRun& run, PhaseQueue& queue, int count, Time now);
  /// False when the driver refused the launch (caller re-queues).
  bool launch_task(JobRun& run, int task_index, Time now);

  Cluster cluster_;
  LaunchFn launch_;
  MinEdfConfig config_;
  int free_map_ = 0;
  int free_reduce_ = 0;
  /// Slots on currently-up resources; caps the ARIA profile under
  /// failures (equal to the cluster totals while nothing is down).
  int avail_map_ = 0;
  int avail_reduce_ = 0;
  std::map<JobId, JobRun> jobs_;
  /// Live jobs in EDF order; submit() inserts, completion erases.
  std::vector<EdfEntry> edf_;
  /// Per-dispatch grants, kept to reuse their capacity.
  std::vector<Grant> grants_;
  MinEdfStats stats_;
};

}  // namespace mrcp::baseline
