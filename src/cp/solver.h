// Anytime CP solver facade.
//
// This plays the role CPLEX's CP Optimizer plays in the paper: given a
// Model it returns the best schedule it can find within a budget,
// minimizing the number of late jobs. The strategy is
//   1. a portfolio of first-descent searches, one per (job-ordering
//      strategy, intra-job task order) — the job orderings are the list
//      schedules the paper's §VI.B ordering experiment compares. The
//      portfolio stops once its incumbent reaches the root lower bound
//      (the jobs late in every schedule): no later member can beat it;
//   2. a set-times branch-and-bound improvement run seeded with the
//      portfolio incumbent;
//   3. large-neighbourhood search: randomized perturbations of the job
//      ranking around late jobs, each evaluated with a cheap first
//      descent, accepting improvements.
// Phase 2 and 3 only run while jobs are still late — a zero-late
// incumbent is optimal for the paper's objective.
//
// A first descent is a function of its key, the (job ranks, intra-job
// LPT flags) pair, so a solve never takes the same key twice: a member
// whose key equals an earlier member's is skipped (it could only tie
// that member in the fold), and an LNS neighbourhood whose key an
// earlier descent of the same solve already took is skipped after its
// RNG draws (its re-run could not pass better_than the incumbent).
// Portfolio keys seed the LNS memo only when their solution is not
// better_than the LNS-start incumbent — see docs/cp_engine.md.
//
// The solve is sequential: each descent runs in the calling thread with
// a cutoff equal to the best late count known before it (the warm start
// and earlier members, or the incumbent for an LNS neighbourhood), and
// aborts once it is certain to be strictly worse. For a fixed seed the
// result is a function of the model and the parameters, as long as the
// wall-clock budget does not bind — see docs/cp_engine.md.
#pragma once

#include <cstdint>
#include <vector>

#include "cp/model.h"
#include "cp/search.h"
#include "cp/solution.h"

namespace mrcp::cp {

struct SolveParams {
  /// Orderings to try in the greedy portfolio, in order.
  std::vector<JobOrdering> portfolio = {JobOrdering::kEdf,
                                        JobOrdering::kLeastLaxity,
                                        JobOrdering::kJobId};
  /// Fail budget of the branch-and-bound improvement run (0 disables it).
  std::int64_t improvement_fails = 2000;
  int postpone_tries = 2;
  /// LNS restarts after the improvement run (0 disables LNS).
  int lns_iterations = 20;
  /// Overall wall-clock budget for the solve.
  double time_limit_s = 0.5;
  std::uint64_t seed = 1;
  /// Must be 1: solve() runs in the calling thread. The field remains
  /// only because the benchmark harness (perfbench/harness/main.cpp)
  /// sets and reports it; it goes with the next benchmark change.
  int num_threads = 1;
  /// Optional hard watchdog shared by every phase (portfolio descents,
  /// B&B improvement, LNS): once expired, running searches abort at the
  /// next check — even mid-descent, so the solve may return no solution
  /// at all (SolveStatus::kBudgetExhausted). Callers own the Deadline;
  /// nullptr (the default) keeps the anytime guarantee that a validated
  /// model always yields a schedule. See docs/degraded_mode.md.
  const Deadline* hard_deadline = nullptr;
};

/// What the solver can promise about its result.
enum class SolveStatus : std::uint8_t {
  kOptimal,          ///< proved optimal (zero late jobs or exhausted search)
  kFeasible,         ///< best-effort schedule found within the budget
  kBudgetExhausted,  ///< hard deadline expired before any solution existed
  kInfeasible,       ///< search space exhausted without a solution
};

const char* solve_status_name(SolveStatus status);

struct SolveStats {
  std::int64_t decisions = 0;
  std::int64_t fails = 0;
  std::int64_t solutions = 0;
  int lns_improvements = 0;
  double solve_seconds = 0.0;
  /// Per-phase wall-clock breakdown (sums to ~solve_seconds): greedy
  /// portfolio, branch-and-bound improvement, LNS. Feeds the perf bench
  /// (bench/cp_micro.cpp) so regressions are attributable to a phase.
  double portfolio_seconds = 0.0;
  double improvement_seconds = 0.0;
  double lns_seconds = 0.0;
  JobOrdering best_ordering = JobOrdering::kEdf;
  /// Portfolio members that ran a descent. Fewer than the portfolio size
  /// when the root bound or the budget stopped phase 1 early, or when
  /// members repeat an earlier member's key (only distinct keys run).
  int portfolio_members_run = 0;
  /// Index of the member the portfolio fold chose (ordering-major, then
  /// adaptive / FIFO / LPT), or -1 when the warm start stayed the
  /// incumbent or phase 1 ran no member. Later B&B/LNS improvements do
  /// not change it.
  int winning_member = -1;
  /// Descents not run because the solve had already taken their key:
  /// repeated portfolio members reached before the portfolio stopped,
  /// plus skipped LNS neighbourhoods.
  std::int64_t repeat_descents_skipped = 0;
  /// The portfolio incumbent (warm start or a member) reached
  /// SearchRoot::late_count(), the root lower bound on late jobs.
  bool portfolio_stopped_at_bound = false;
  bool proved_optimal = false;  ///< zero late jobs, or search exhausted
  bool aborted = false;         ///< some search hit the hard deadline
};

struct SolveResult {
  Solution best;
  SolveStats stats;
  /// What `best` is: with the default params (no hard deadline) this is
  /// always kOptimal or kFeasible and `best.valid` holds; a hard
  /// deadline adds the kBudgetExhausted outcome where `best` is invalid
  /// and the caller must fall back (docs/degraded_mode.md).
  SolveStatus status = SolveStatus::kFeasible;
  /// Wall-clock seconds this solve actually consumed (== stats.solve_seconds,
  /// surfaced here so budget-bound solves are visible next to `status`).
  double wall_seconds = 0.0;
};

/// Per-job intra-order of the portfolio's first ("adaptive") variant:
/// LPT (1) for jobs whose deadline is tight relative to a capacity-aware
/// makespan lower bound (LPT reproduces the minimum-makespan list
/// schedule), FIFO (0) for loose jobs (staggered task endings leave
/// earlier holes for future arrivals). Phase 1 runs, for each ordering
/// in SolveParams::portfolio, the intra-orders adaptive, all-FIFO and
/// all-LPT, in that member order.
std::vector<std::uint8_t> adaptive_lpt_flags(const Model& model);

/// Solve the model. The model must pass Model::validate(). If
/// `warm_start` is a valid solution for this model it seeds the bound.
SolveResult solve(const Model& model, const SolveParams& params,
                  const Solution* warm_start = nullptr);

}  // namespace mrcp::cp
