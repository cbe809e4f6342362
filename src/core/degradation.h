// Degradation ledger: per-invocation attribution of how MRCP-RM obtained
// each published plan (docs/degraded_mode.md).
//
// Every reschedule() appends one InvocationRecord saying what produced
// the plan — the primary CP solve, the EDF fallback scheduler after an
// aborted solve, the incremental scope's empty-dirty republish, or
// nothing at all (idle / everything parked) — plus how many CP attempts
// ran and how much wall clock they burned. The ledger is what makes degraded operation
// observable: a run that silently fell back on every invocation would
// otherwise look identical to a healthy one in the O/N/T/P metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "cp/solver.h"

namespace mrcp {

/// What produced an invocation's plan.
enum class InvocationOutcome : std::uint8_t {
  kCpPrimary,  ///< the primary CP solve (healthy path)
  kFallback,   ///< the EDF fallback scheduler's plan was published (degraded)
  kParked,     ///< nothing schedulable: every live job parked (degraded)
  kSkipped,    ///< incremental scope, empty dirty set: plan republished
  kIdle,       ///< no live work at all
};

const char* invocation_outcome_name(InvocationOutcome outcome);

struct InvocationRecord {
  std::uint64_t epoch = 0;  ///< plan epoch this invocation published
  Time sim_time;
  /// cp::solve calls made: 0 = none ran, 1 = the primary solve ran. The
  /// value 2 no longer occurs: the fallback backtracks out of an
  /// anti-affinity dead end itself, without a second solve. The field
  /// keeps its place in the journal and snapshot encoding.
  int attempts = 0;
  cp::SolveStatus last_status = cp::SolveStatus::kFeasible;  ///< of last attempt
  InvocationOutcome outcome = InvocationOutcome::kIdle;
  double solve_wall_seconds = 0.0;  ///< wall clock inside cp::solve
  std::size_t live_tasks = 0;       ///< tasks in the solved model
  std::size_t parked_jobs = 0;      ///< jobs parked as unplaceable
  // ---- Incremental-mode attribution (docs/incremental.md) ----
  std::size_t dirty_jobs = 0;    ///< jobs re-solved this invocation
  std::size_t frozen_tasks = 0;  ///< boundary tasks pinned, not re-solved
  // ---- Side channel: not journaled or snapshotted (a restored record
  // reads 0 / false), never read by the planner ----
  /// Plan provenance of the last attempt.
  int portfolio_members_run = 0;  ///< cp::SolveStats::portfolio_members_run
  bool portfolio_stopped_at_bound = false;  ///< reached the root lower bound
  int winning_member = -1;  ///< cp::SolveStats::winning_member
  /// cp::SolveStats::repeat_descents_skipped of the attempt.
  std::int64_t repeat_descents_skipped = 0;
  /// Wall clock of the attempt's solver phases (cp::SolveStats
  /// portfolio_seconds, improvement_seconds and lns_seconds): which phase
  /// a faster kernel sped up.
  double portfolio_seconds = 0.0;
  double improvement_seconds = 0.0;
  double lns_seconds = 0.0;
  /// Wall clock of the whole reschedule() call, up to publishing its plan
  /// (the per-call share of the paper's O).
  double wall_seconds = 0.0;
  /// Wall clock of the call's stages (solve_wall_seconds covers the
  /// solver's search, not the model check cp::solve() runs first):
  /// collecting and parking the live set, building the model, mapping the
  /// chosen placements onto resources and committing them, and publishing
  /// the plan.
  double collect_wall_seconds = 0.0;
  double build_wall_seconds = 0.0;
  double matchmake_wall_seconds = 0.0;
  double publish_wall_seconds = 0.0;
};

/// Aggregate counters over a ledger; embedded in sim::SimMetrics and
/// printed by `mrcp-sim --stats`.
struct DegradationCounts {
  std::uint64_t primary = 0;
  std::uint64_t fallback = 0;
  std::uint64_t parked = 0;
  std::uint64_t skipped = 0;
  std::uint64_t idle = 0;
  std::uint64_t solve_attempts = 0;
  double solve_wall_seconds = 0.0;

  std::uint64_t invocations() const {
    return primary + fallback + parked + skipped + idle;
  }
  /// Invocations that did not get a plan from the primary CP solve.
  std::uint64_t degraded() const { return fallback + parked; }
};

class DegradationLedger {
 public:
  void record(const InvocationRecord& rec);

  const std::vector<InvocationRecord>& records() const { return records_; }
  const DegradationCounts& counts() const { return counts_; }

  /// One-line human-readable summary of the counters.
  std::string summary() const;

 private:
  std::vector<InvocationRecord> records_;
  DegradationCounts counts_;
};

}  // namespace mrcp
