// MRCP-RM — the MapReduce Constraint Programming based Resource Manager
// (paper §V). This is the paper's primary contribution.
//
// Usage in an open system: submit() each job when it arrives, then call
// reschedule(now) to run the Table 2 algorithm, which
//   1. clamps earliest start times that have passed to `now`;
//   2. classifies every previously-scheduled task: completed tasks are
//      dropped (and fully-completed jobs removed), running tasks are
//      pinned (resource + start + end fixed, earliest-start constraint
//      lifted);
//   3. rebuilds the CP model over all remaining tasks — newly submitted
//      jobs *and* previously scheduled but unstarted tasks, which are
//      re-mapped and re-scheduled from scratch for maximum flexibility
//      (every active job is dirty; ReplanScope::kDirtyOnly instead keeps
//      the unstarted tasks of untouched jobs frozen in place);
//   4. solves it (combined-resource + matchmaking when the §V.D
//      separation optimization is on and no unstarted task is frozen,
//      direct model otherwise); a solve whose hard watchdog expires
//      before any schedule exists is replaced by the EDF fallback's plan
//      for the same model (docs/degraded_mode.md);
//   5. publishes a new Plan carrying every live task's assignment.
//
// §V.E deferral: jobs whose s_j lies more than `deferral_window` in the
// future are parked in a deferral queue and only join the CP model once
// now >= s_j - deferral_window; next_deferred_release() tells the driver
// when to invoke reschedule() for that.
//
// The O metric (average matchmaking and scheduling time per job) is
// accumulated from wall-clock measurements around steps 1-5, mirroring
// the paper's System.nanoTime() instrumentation.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/radix_sort.h"
#include "common/types.h"
#include "core/degradation.h"
#include "core/model_builder.h"
#include "core/plan.h"
#include "cp/solver.h"
#include "mapreduce/cluster.h"
#include "mapreduce/job.h"

namespace mrcp {

class Journal;

/// How much of the existing schedule each invocation reconsiders. Both
/// scopes run one pipeline; the scope only decides which jobs enter the
/// dirty set (the jobs whose unstarted tasks are re-solved from free).
enum class ReplanScope {
  /// Paper Table 2: every task that has not *started* is re-mapped and
  /// re-scheduled for maximum flexibility — every active job is dirty.
  kAllUnstarted,
  /// Incremental rescheduling (docs/incremental.md): the RM tracks the
  /// set of jobs touched since the last solve — arrivals, deferral
  /// releases, fault-reset assignments, parked work — and re-solves only
  /// those against a frozen boundary of untouched assignments.
  kDirtyOnly,
};

struct MrcpConfig {
  /// §V.D separation of matchmaking and scheduling (combined-resource
  /// solve + min-gap matchmaking). Requires unit task demands.
  bool use_separation = true;

  ReplanScope replan_scope = ReplanScope::kAllUnstarted;

  /// §V.E: defer jobs with far-future earliest start times.
  bool defer_future_jobs = true;
  /// A deferred job enters scheduling at s_j - deferral_window.
  Time deferral_window;

  /// CP solver budgets (per invocation). The solve runs in the calling
  /// thread under a hard watchdog of 64x solve.time_limit_s; when it
  /// expires before any descent completes, the invocation publishes the
  /// deterministic EDF fallback scheduler's plan instead
  /// (docs/degraded_mode.md).
  cp::SolveParams solve;

  /// Re-validate every published plan (slow; for tests/debugging).
  bool validate_plans = false;
};

struct MrcpStats {
  std::uint64_t invocations = 0;
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_completed_late = 0;
  double total_sched_seconds = 0.0;  ///< sum of per-invocation wall time
  std::int64_t solver_decisions = 0;
  std::int64_t solver_fails = 0;
  std::uint64_t max_live_tasks = 0;  ///< largest model solved
  std::uint64_t resource_down_events = 0;
  std::uint64_t resource_up_events = 0;
  /// Assignments reset by handle_resource_down (killed + unstarted).
  std::uint64_t tasks_reset_by_failure = 0;
  std::uint64_t solve_attempts = 0;  ///< cp::solve calls
  std::uint64_t fallback_plans = 0;  ///< invocations resolved by the EDF fallback
  std::uint64_t jobs_parked = 0;     ///< job-epochs parked as unplaceable
  double solve_wall_seconds = 0.0;   ///< wall clock inside cp::solve
  // ---- Incremental mode (docs/incremental.md) ----
  /// Always 0: the persistent model cache and the previous-plan warm
  /// start were removed (docs/incremental.md). Kept so existing readers
  /// of these counters still compile.
  std::uint64_t model_cache_hits = 0;
  std::uint64_t model_cache_misses = 0;  ///< always 0, see above
  std::uint64_t warm_starts_used = 0;    ///< always 0, see above
  /// Clean jobs force-promoted to dirty by the collect-time safety net
  /// (an unstarted task without a live assignment on an up resource).
  /// Nonzero means the dirty-set bookkeeping missed an event — the audit
  /// tests assert it stays 0.
  std::uint64_t dirty_promotions = 0;

  /// O: average matchmaking and scheduling time per submitted job
  /// (paper §VI: total scheduling time / jobs mapped and scheduled).
  double average_sched_seconds_per_job() const {
    if (jobs_submitted == 0) return 0.0;
    return total_sched_seconds / static_cast<double>(jobs_submitted);
  }
};

class MrcpRm {
 public:
  MrcpRm(Cluster cluster, MrcpConfig config);

  /// A job has arrived (now == job.arrival_time in the simulator). The
  /// job is queued; call reschedule() to actually plan it.
  void submit(const Job& job, Time now);

  /// Run the Table 2 matchmaking-and-scheduling algorithm at time `now`.
  /// Returns the freshly published plan.
  const Plan& reschedule(Time now);

  /// A resource failed at `now`: its slot capacity leaves the model and
  /// every assignment on it that has not ended by `now` — running and
  /// planned-but-unstarted alike — is reset, so the next reschedule()
  /// re-enters it as unstarted work (the Table 2 classification applied
  /// to failure recovery). Returns the reset assignments as they stood,
  /// in (job, task) order, with `started` meaning start <= now; which of
  /// them had actually begun, and so are lost, is the executor's to kill
  /// (an attempt planned to start exactly at `now` may not have). The
  /// caller must invoke reschedule(now) afterwards to publish a repaired
  /// plan.
  std::vector<PlannedTask> handle_resource_down(ResourceId resource,
                                                Time now);

  /// The resource was repaired at `now`: its capacity rejoins the model.
  /// Call reschedule(now) to let the solver take advantage of it.
  void handle_resource_up(ResourceId resource, Time now);

  const Plan& current_plan() const { return plan_; }
  const Cluster& cluster() const { return cluster_; }

  /// Earliest time a deferred job becomes eligible or parked work is
  /// retried; kNoTime when neither is pending.
  Time next_deferred_release() const;

  /// Jobs currently known to the RM (active + deferred), for testing.
  std::size_t live_jobs() const { return active_.size() + deferred_.size(); }

  /// Force a job into the dirty set (incremental mode): its unstarted
  /// tasks are re-solved on the next reschedule() instead of staying
  /// frozen. Bench/test hook — every real event marks dirty jobs itself.
  void mark_dirty(JobId id);
  /// Jobs queued for re-solving by the next incremental invocation.
  const std::set<JobId>& dirty_jobs() const { return dirty_jobs_; }

  const MrcpStats& stats() const { return stats_; }

  /// Per-invocation degraded-mode attribution (docs/degraded_mode.md).
  const DegradationLedger& ledger() const { return ledger_; }
  /// The ledger's counters, ready to embed in sim::SimMetrics.
  const DegradationCounts& degradation_counts() const {
    return ledger_.counts();
  }

  // ---- Durability (docs/crash_recovery.md) ----

  /// Attach a write-ahead journal: from now on every scheduler-visible
  /// event (submission, release, completion, fault activity, every
  /// published plan, park-retry arming) appends one record. Null
  /// detaches; the default is off and costs nothing.
  void attach_journal(Journal* journal) { journal_ = journal; }

  /// Serialize the RM's full mutable state — active/deferred/parked
  /// jobs, current plan, stats, degradation ledger, dirty set, fault
  /// flags — as a versioned blob.
  std::string encode_state() const;

  /// Restore state captured by encode_state(). The RM must have been
  /// constructed with the same cluster and config as the captured one.
  /// False (with *error set) on truncation, corruption, version or
  /// cluster-shape mismatch; the RM is unusable after a failed restore.
  bool restore_state(std::string_view state, std::string* error);

  /// Restore a snapshot, then replay a journal suffix on top of it:
  /// input events (submissions, faults) are re-applied, and each
  /// journaled plan triggers a real reschedule() whose published plan is
  /// byte-compared against the record — re-deriving the outputs proves
  /// the restored state equivalent instead of trusting it.
  bool restore(std::string_view snapshot_state,
               const std::vector<std::string>& journal_suffix,
               std::string* error);

 private:
  struct Assignment {
    ResourceId resource = kNoResource;
    Time start = kNoTime;
    Time end = kNoTime;
    bool assigned() const { return resource != kNoResource; }
  };
  struct JobState {
    Job job;
    std::vector<std::uint8_t> completed;   ///< per flat task index
    std::vector<Assignment> assignments;   ///< per flat task index
  };

  void release_deferred(Time now);
  void sweep_completed(Time now);
  /// Live jobs for the CP model. Jobs absent from dirty_jobs_ form the
  /// frozen boundary (their planned-but-unstarted assignments are
  /// pinned); dirty jobs are re-solved from free. A clean job that cannot
  /// be frozen soundly — an unstarted task with no assignment, or one
  /// stranded on a down resource — is promoted into dirty_jobs_ (and
  /// counted in stats_.dirty_promotions: the promotion is a safety net,
  /// correct bookkeeping never needs it).
  std::vector<LiveJob> collect_live_jobs(Time now);
  /// Park jobs with a free task no *current* (post-failure) resource can
  /// host: their unstarted assignments are released and only their
  /// started tasks stay in `live` (they occupy real capacity). A task
  /// even the pristine cluster cannot host is a workload error and stays
  /// fatal. Rebuilds `parked_`.
  void park_unplaceable(std::vector<LiveJob>& live, Time now);
  /// Append one record to the attached journal (no-op when detached);
  /// a failed append — I/O error or resume-verification divergence — is
  /// fatal, which is what the crash-injection harness leans on.
  void journal_append(const std::string& payload);
  void publish_plan(Time now);

  Cluster cluster_;            ///< working capacities (failed => zeroed)
  Cluster pristine_cluster_;   ///< capacities as constructed
  std::vector<std::uint8_t> down_;  ///< per-resource failed flag
  MrcpConfig config_;
  std::map<JobId, JobState> active_;
  std::multimap<Time, Job> deferred_;  ///< release time -> job
  Plan plan_;
  MrcpStats stats_;
  /// matchmake()'s sort buffer, kept across replans so that it is
  /// allocated and cleared only when a replan outgrows it.
  std::vector<KeyedIndex> matchmake_scratch_;

  // ---- Degraded-mode state (docs/degraded_mode.md) ----
  std::set<JobId> parked_;       ///< jobs with unplaced tasks this epoch
  Time park_retry_at_ = kNoTime; ///< next parked-work retry wakeup
  DegradationLedger ledger_;

  // ---- Incremental-mode state (docs/incremental.md) ----

  /// Jobs touched since the last solve: arrivals, deferral releases,
  /// assignments reset by failures, and (folded in at every invocation)
  /// parked jobs. Only these are re-solved; everything else is frozen
  /// boundary. kAllUnstarted adds every active job at each invocation,
  /// which leaves the boundary empty.
  std::set<JobId> dirty_jobs_;

  /// Write-ahead journal; null (the default) disables all journaling.
  Journal* journal_ = nullptr;
};

}  // namespace mrcp
