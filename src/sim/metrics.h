// Simulation output: per-job records and the paper's performance metrics
// (§VI):
//   O — average matchmaking and scheduling time of a job (s),
//   N — number of jobs that missed their deadline,
//   T — average job turnaround time, sum(CT_j - s_j)/jobs (s),
//   P — percentage of late jobs, N / jobs arrived (%).
//
// Aggregation over a warmup-trimmed range of jobs approximates the
// paper's steady-state measurement (§VI.A "run long enough to ensure the
// system operates at steady state").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/batch_means.h"
#include "common/types.h"
#include "core/degradation.h"

namespace mrcp::sim {

struct JobRecord {
  JobId id = kNoJob;
  Time arrival;
  Time earliest_start;
  Time deadline;
  Time completion = kNoTime;  ///< kNoTime until the job finishes
  bool late = false;
  /// At least one of the job's tasks was killed by a resource failure.
  bool failure_affected = false;

  bool completed() const { return completion != kNoTime; }
  Time turnaround() const { return completion - earliest_start; }
};

/// Mark `record` complete at `now`. Aborts on double completion — the
/// drivers' "every task finished exactly once" invariant.
void finish_job_record(JobRecord& record, Time now);

/// One executed task interval, for post-hoc execution validation.
struct ExecutedTask {
  JobId job = kNoJob;
  int task_index = -1;
  ResourceId resource = kNoResource;
  Time start;
  Time end;
};

/// One resource outage. end == kNoTime means the resource was still down
/// when the simulation drained.
struct DownInterval {
  ResourceId resource = kNoResource;
  Time start;
  Time end = kNoTime;
};

/// Failure-attribution counters (all zero when fault injection is off).
struct FailureMetrics {
  std::uint64_t resource_failures = 0;
  std::uint64_t resource_repairs = 0;
  /// Correlated rack bursts fired (each may down several members; the
  /// member downs are counted in resource_failures).
  std::uint64_t rack_bursts = 0;
  std::uint64_t tasks_killed = 0;     ///< attempts lost to failures
  std::uint64_t straggler_tasks = 0;  ///< tasks slowed by the straggler model
  Time wasted_ticks;              ///< work executed by killed attempts
  /// Late jobs that had at least one task killed — an upper bound on
  /// "late because of failures" (the job may have been late regardless).
  std::uint64_t jobs_late_failure_affected = 0;

  double wasted_seconds() const { return ticks_to_seconds(wasted_ticks); }
};

struct SimMetrics {
  std::vector<JobRecord> records;  ///< indexed by job id
  /// Ground-truth executed intervals (validation input, trace export).
  std::vector<ExecutedTask> executed;
  /// Attempts killed by resource failures; `end` is the kill time, so
  /// end - start is the work wasted by that attempt.
  std::vector<ExecutedTask> killed;
  /// Injected resource outages, in failure order.
  std::vector<DownInterval> downtime;
  FailureMetrics failure;
  /// Degraded-mode attribution (MRCP-RM only; zero for baselines).
  DegradationCounts degradation;
  /// MRCP-RM's ledger, one record per reschedule() call in call order
  /// (empty for baselines). Records a resumed run restored from its
  /// journal carry no side-channel fields (wall_seconds reads 0).
  std::vector<InvocationRecord> invocations;
  double total_sched_seconds = 0.0;
  /// Wall clock of the driver's validate_execution call (0 when
  /// SimOptions::validate_execution is off); `mrcp-sim --stats` prints
  /// it. Wall clock only: no trace or summary metric depends on it.
  double validate_wall_seconds = 0.0;
  std::uint64_t rm_invocations = 0;
  std::uint64_t max_live_tasks = 0;
  /// True when a crash-injection hook (DurabilityOptions::
  /// crash_after_records) stopped the run before the workload drained.
  /// Such metrics are partial; the recovery harness restores and resumes
  /// instead of reading them.
  bool crash_stopped = false;

  /// O in seconds: total scheduling time divided by submitted jobs.
  double sched_overhead_per_job() const {
    if (records.empty()) return 0.0;
    return total_sched_seconds / static_cast<double>(records.size());
  }

  struct Aggregate {
    std::size_t jobs = 0;
    std::int64_t late = 0;          ///< N
    double percent_late = 0.0;      ///< P (%)
    double mean_turnaround_s = 0.0; ///< T (s)
  };

  /// Aggregate over the jobs remaining after discarding the first
  /// warmup_fraction of records *in arrival order* (steady state). For
  /// workloads with arrival-sorted ids — the trace-format invariant —
  /// this equals the id-order cut.
  Aggregate aggregate(double warmup_fraction = 0.0) const;

  /// Within-run batch-means CI for the turnaround time T (seconds),
  /// warmup-trimmed. Complements the across-replication CI of
  /// sim::replicate: per-job turnarounds are autocorrelated (jobs share
  /// congestion periods), so this is the statistically sound single-run
  /// interval (see common/batch_means.h).
  BatchMeansResult turnaround_batch_ci(double warmup_fraction = 0.1,
                                       std::size_t num_batches = 20) const;
};

}  // namespace mrcp::sim
