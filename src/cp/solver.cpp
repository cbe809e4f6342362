#include "cp/solver.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "cp/audit.h"
#include "common/stopwatch.h"

namespace mrcp::cp {

std::vector<std::uint8_t> adaptive_lpt_flags(const Model& model) {
  // Total slot capacity per phase across all resources.
  std::int64_t map_slots = 0;
  std::int64_t reduce_slots = 0;
  for (const CpResource& r : model.resources()) {
    map_slots += r.map_capacity;
    reduce_slots += r.reduce_capacity;
  }
  map_slots = std::max<std::int64_t>(map_slots, 1);
  reduce_slots = std::max<std::int64_t>(reduce_slots, 1);

  std::vector<Time> map_work(model.num_jobs(), Time{0});
  std::vector<Time> map_max(model.num_jobs(), Time{0});
  std::vector<Time> reduce_work(model.num_jobs(), Time{0});
  std::vector<Time> reduce_max(model.num_jobs(), Time{0});
  for (const CpTask& t : model.tasks()) {
    const auto j = static_cast<std::size_t>(t.job);
    if (t.phase == Phase::kMap) {
      map_work[j] += t.duration;
      map_max[j] = std::max(map_max[j], t.duration);
    } else {
      reduce_work[j] += t.duration;
      reduce_max[j] = std::max(reduce_max[j], t.duration);
    }
  }
  std::vector<std::uint8_t> flags(model.num_jobs(), 0);
  for (std::size_t j = 0; j < model.num_jobs(); ++j) {
    const CpJob& job = model.job(static_cast<CpJobIndex>(j));
    const Time lb =
        std::max(map_max[j], ceil_div(map_work[j], map_slots)) +
        std::max(reduce_max[j],
                 ceil_div(reduce_work[j], reduce_slots));
    if (lb <= Time{0}) continue;
    const Time budget = job.deadline - job.earliest_start;
    // Tight: less than ~30% slack over the alone-on-the-cluster bound.
    flags[j] = budget * 10 < lb * 13 ? 1 : 0;
  }
  return flags;
}

namespace {

/// Ranks with one job promoted to the front (all ranks below its old rank
/// shift up by one). Used by LNS to give a late job first pick.
std::vector<int> promote_job(const std::vector<int>& ranks, std::size_t job) {
  std::vector<int> out = ranks;
  const int old_rank = out[job];
  for (auto& r : out) {
    if (r < old_rank) ++r;
  }
  out[job] = 0;
  return out;
}

}  // namespace

const char* solve_status_name(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kFeasible: return "feasible";
    case SolveStatus::kBudgetExhausted: return "budget-exhausted";
    case SolveStatus::kInfeasible: return "infeasible";
  }
  return "unknown";
}

SolveResult solve(const Model& model, const SolveParams& params,
                  const Solution* warm_start) {
  MRCP_CHECK_MSG(model.validate().empty(), "invalid model passed to solve()");
  MRCP_CHECK_MSG(params.num_threads == 1,
                 "SolveParams::num_threads must be 1: solve() runs every "
                 "descent in the calling thread");
  Stopwatch timer;
  SolveResult result;
  SolveStats& stats = result.stats;

  Solution best;
  if (warm_start && warm_start->valid) best = *warm_start;

  auto remaining = [&]() {
    double r = params.time_limit_s - timer.elapsed_seconds();
    if (params.hard_deadline != nullptr) {
      r = std::min(r, params.hard_deadline->remaining_seconds());
    }
    return r;
  };
  auto account = [&](const SearchStats& st) {
    stats.decisions += st.decisions;
    stats.fails += st.fails;
    stats.solutions += st.solutions;
    stats.aborted = stats.aborted || st.aborted;
  };

  // One immutable root (pinned-task replay, static lateness, the
  // precedence DAG) and one search over it, built on first use: portfolio
  // members, the B&B run and LNS neighbourhoods re-target it with reset()
  // — O(decision-order rebuild) — instead of reconstructing profiles and
  // re-running the priority-topo sort per member (docs/perf.md).
  const SearchRoot root(model);
  std::unique_ptr<SetTimesSearch> search_slot;
  auto search = [&]() -> SetTimesSearch& {
    if (!search_slot) search_slot = std::make_unique<SetTimesSearch>(root);
    return *search_slot;
  };

  // A first descent is cut (returns no solution) once it is certain to be
  // strictly worse than `cutoff`, the best late count the solve already
  // holds; a descent that ties the cutoff is never cut, so it returns the
  // solution it would return without one (SearchLimits::late_cutoff).
  auto descent_limits = [&](double floor_s, int cutoff) {
    SearchLimits limits;
    limits.max_fails = 0;
    limits.stop_after_first_solution = true;
    limits.postpone_tries = 0;
    limits.time_limit_s = std::max(remaining(), floor_s);
    limits.late_cutoff = cutoff;
    limits.hard_deadline = params.hard_deadline;
    return limits;
  };

  // Phase 1: greedy portfolio over (job ordering, intra-job task order).
  // LPT within jobs reproduces each job's minimum-makespan list schedule
  // (a lone job finishes exactly at its TE); FIFO staggers task endings,
  // which helps later tight-deadline arrivals find early slot holes.
  std::vector<int> best_ranks;
  std::vector<std::uint8_t> best_lpt(model.num_jobs(), 0);
  MRCP_CHECK(!params.portfolio.empty());
  // Intra-order variants, first-listed wins objective ties: adaptive
  // (LPT only where the deadline demands it) is preferred — staggered
  // task endings leave earlier holes for future arrivals, a benefit the
  // per-solve objective cannot see; all-FIFO and all-LPT must strictly
  // improve to be chosen.
  enum class IntraOrder { kAdaptive, kFifo, kLpt };
  constexpr IntraOrder kIntraOrders[] = {IntraOrder::kAdaptive,
                                         IntraOrder::kFifo, IntraOrder::kLpt};

  // A member's key (ranks, intra-job flags) is built only when the
  // portfolio reaches it, so a portfolio cut short at the root bound pays
  // for the members it reached.
  struct Member {
    JobOrdering ordering;
    IntraOrder intra;
    std::vector<int> ranks;
    std::vector<std::uint8_t> lpt;
    Solution sol;
    bool ran = false;
  };
  std::vector<Member> members;
  members.reserve(params.portfolio.size() * std::size(kIntraOrders));
  for (JobOrdering ordering : params.portfolio) {
    for (IntraOrder intra : kIntraOrders) {
      members.push_back(Member{ordering, intra, {}, {}, {}});
    }
  }
  auto build_member = [&](Member& m) {
    m.ranks = make_job_ranks(model, m.ordering);
    switch (m.intra) {
      case IntraOrder::kAdaptive: m.lpt = adaptive_lpt_flags(model); break;
      case IntraOrder::kFifo: m.lpt.assign(model.num_jobs(), 0); break;
      case IntraOrder::kLpt: m.lpt.assign(model.num_jobs(), 1); break;
    }
  };

  // Members run in order. The fold keeps a member only with strictly
  // fewer late jobs than the warm start and every earlier member, keyed
  // on the primary objective alone: the completion-time tie-break would
  // otherwise always pick all-LPT by an epsilon, re-synchronizing task
  // endings and hurting future arrivals the current model cannot see.
  // That running minimum is also each descent's cutoff. Three rules skip
  // a member:
  //  * root-bound stop: the statically-late jobs are late in every leaf,
  //    so no solution has fewer than root.late_count() late jobs, and once
  //    the warm start or a member reaches that count no later member can
  //    win the fold;
  //  * repeat: a descent is a function of its key alone, so a member whose
  //    key equals an earlier member's could only tie it;
  //  * exhausted budget, once the warm start guarantees a schedule.
  const int lower_bound = root.late_count();
  auto at_bound = [&](const Solution& sol) {
    return sol.valid && sol.num_late <= lower_bound;
  };
  int fold_late = best.valid ? best.num_late : std::numeric_limits<int>::max();
  for (std::size_t i = 0; i < members.size() && !at_bound(best); ++i) {
    Member& m = members[i];
    build_member(m);
    bool repeat = false;
    for (std::size_t j = 0; j < i && !repeat; ++j) {
      repeat = members[j].ranks == m.ranks && members[j].lpt == m.lpt;
    }
    if (repeat) {
      ++stats.repeat_descents_skipped;
      continue;
    }
    if (remaining() <= 0.0 && best.valid) continue;
    SetTimesSearch& s = search();
    s.reset(m.ranks, m.lpt);
    SearchStats st;
    m.sol = s.run(descent_limits(0.05, fold_late), nullptr, &st);
    m.ran = true;
    ++stats.portfolio_members_run;
    account(st);
    if (m.sol.valid && m.sol.num_late < fold_late) {
      fold_late = m.sol.num_late;
      stats.winning_member = static_cast<int>(i);
    }
    if (at_bound(m.sol)) break;
  }
  // Fold audit: every member that ran produced a constraint-satisfying
  // solution, and the fold landed on the best late count among the warm
  // start and the members.
  MRCP_AUDIT_ONLY({
    int expected_late = best.valid ? best.num_late
                                   : std::numeric_limits<int>::max();
    for (const Member& m : members) {
      if (!m.ran || !m.sol.valid) continue;
      MRCP_AUDIT_CHECK(validate_solution(model, m.sol));
      if (model.num_tasks() <= audit::kAuditModelSizeLimit) {
        MRCP_AUDIT_CHECK(audit::brute_force_check_solution(model, m.sol));
      }
      expected_late = std::min(expected_late, m.sol.num_late);
    }
    MRCP_CHECK_MSG(fold_late == expected_late,
                   "portfolio fold audit: folded incumbent does not equal "
                   "the best member late-count");
  })
  // Member keys stay in place: LNS seeds its memo from them below.
  if (stats.winning_member >= 0) {
    Member& w = members[static_cast<std::size_t>(stats.winning_member)];
    best = std::move(w.sol);
    best_ranks = w.ranks;
    best_lpt = w.lpt;
    stats.best_ordering = w.ordering;
  }
  stats.portfolio_stopped_at_bound = at_bound(best);
  if (best_ranks.empty()) {
    best_ranks = make_job_ranks(model, params.portfolio.front());
  }
  stats.portfolio_seconds = timer.elapsed_seconds();

  // Phases 2 and 3 can only help while some job is late.
  const bool improvable = best.valid && best.num_late > 0;

  // Phase 2: branch-and-bound improvement from the portfolio incumbent.
  if (improvable && params.improvement_fails > 0 && remaining() > 0.0) {
    SetTimesSearch& s = search();
    s.reset(best_ranks, best_lpt);
    SearchLimits limits;
    limits.max_fails = params.improvement_fails;
    limits.postpone_tries = params.postpone_tries;
    limits.time_limit_s = remaining();
    limits.hard_deadline = params.hard_deadline;
    SearchStats st;
    Solution sol = s.run(limits, &best, &st);
    account(st);
    if (st.exhausted) stats.proved_optimal = true;
    if (sol.better_than(best)) best = sol;
  }
  stats.improvement_seconds =
      timer.elapsed_seconds() - stats.portfolio_seconds;

  // Phase 3: LNS — promote a (random) late job to the front of the
  // incumbent's ranking, perturb it, and take a fresh first descent with
  // the incumbent's late count as cutoff, accepting improvements.
  if (improvable && params.lns_iterations > 0) {
    RandomStream rng(params.seed, 0x1A5);
    // Descent memo: the (ranks, lpt) keys this solve has already taken.
    // A re-run returns the same solution or is cut by the cutoff, and
    // neither passes better_than(best), so a neighbourhood whose key is
    // here is skipped (its RNG draws still happen). A member's key enters
    // only if its solution is not better_than the incumbent: the
    // portfolio fold compares late counts alone, so a member that ties
    // the winner with a smaller total completion would be accepted here.
    std::set<std::pair<std::vector<int>, std::vector<std::uint8_t>>> taken;
    for (std::size_t i = 0; i < members.size(); ++i) {
      const bool winner = static_cast<int>(i) == stats.winning_member;
      if (members[i].ran && (winner || !members[i].sol.better_than(best))) {
        taken.emplace(members[i].ranks, members[i].lpt);
      }
    }
    for (int iter = 0; iter < params.lns_iterations; ++iter) {
      if (best.num_late == 0 || remaining() <= 0.0) break;
      // Collect currently-late jobs.
      std::vector<std::size_t> late_jobs;
      for (std::size_t j = 0; j < best.job_late.size(); ++j) {
        if (best.job_late[j]) late_jobs.push_back(j);
      }
      if (late_jobs.empty()) break;

      const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(late_jobs.size()) - 1));
      std::vector<int> ranks = promote_job(best_ranks, late_jobs[pick]);
      std::vector<std::uint8_t> lpt = best_lpt;
      // Neighbourhood moves: flip the late job's intra-job order, and
      // occasionally swap two job priorities for diversification.
      if (rng.bernoulli(0.5)) {
        lpt[late_jobs[pick]] = lpt[late_jobs[pick]] != 0 ? 0 : 1;
      }
      if (model.num_jobs() >= 2 && rng.bernoulli(0.5)) {
        const auto a = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(model.num_jobs()) - 1));
        const auto b = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(model.num_jobs()) - 1));
        std::swap(ranks[a], ranks[b]);
      }
      if (!taken.emplace(ranks, lpt).second) {
        ++stats.repeat_descents_skipped;
        continue;
      }

      SetTimesSearch& s = search();
      s.reset(ranks, lpt);
      SearchStats st;
      Solution sol = s.run(descent_limits(0.01, best.num_late), nullptr, &st);
      MRCP_AUDIT_ONLY(
          if (sol.valid) MRCP_AUDIT_CHECK(validate_solution(model, sol));)
      account(st);
      if (sol.better_than(best)) {
        best = std::move(sol);
        best_ranks = std::move(ranks);
        best_lpt = std::move(lpt);
        ++stats.lns_improvements;
      }
    }
  }
  stats.lns_seconds = timer.elapsed_seconds() - stats.portfolio_seconds -
                      stats.improvement_seconds;

  // Final-answer audit: the returned schedule must satisfy every model
  // constraint (independent brute-force oracle on small models).
  MRCP_AUDIT_ONLY({
    if (best.valid) {
      MRCP_AUDIT_CHECK(validate_solution(model, best));
      if (model.num_tasks() <= audit::kAuditModelSizeLimit) {
        MRCP_AUDIT_CHECK(audit::brute_force_check_solution(model, best));
      }
    }
  })
  if (best.valid && best.num_late == 0) stats.proved_optimal = true;
  stats.solve_seconds = timer.elapsed_seconds();
  result.wall_seconds = stats.solve_seconds;
  if (best.valid) {
    result.status =
        stats.proved_optimal ? SolveStatus::kOptimal : SolveStatus::kFeasible;
  } else {
    // No solution at all: either the hard deadline cut every descent
    // short (recoverable — the caller escalates per the degraded-mode
    // ladder) or the searches genuinely exhausted an empty space.
    result.status = stats.aborted ? SolveStatus::kBudgetExhausted
                                  : SolveStatus::kInfeasible;
  }
  result.best = std::move(best);
  return result;
}

}  // namespace mrcp::cp
