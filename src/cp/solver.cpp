#include "cp/solver.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "cp/audit.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"

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

/// One worker's result slot, cache-line padded: the portfolio and LNS
/// phases write these concurrently from different threads, and without
/// the alignment two neighbouring slots share a line and every write
/// ping-pongs it between cores (false sharing).
struct alignas(64) ResultSlot {
  Solution sol;
  SearchStats stats;
  bool ran = false;
};

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

  const int num_threads = ThreadPool::resolve_num_threads(params.num_threads);
  std::unique_ptr<ThreadPool> pool;
  if (num_threads > 1) pool = std::make_unique<ThreadPool>(num_threads);

  // Shared immutable root (pinned-task replay, static lateness, the
  // precedence DAG) plus one cached search object per executor thread:
  // portfolio members and LNS neighbourhoods re-target a cached search
  // with reset() — O(decision-order rebuild) — instead of reconstructing
  // profiles and re-running the priority-topo sort per member, which is
  // what made two solver threads slower than one (docs/perf.md). Slot
  // layout: pool workers use their worker id; the calling thread (the
  // sequential path and the B&B phase) uses the last slot.
  const SearchRoot root(model);
  std::vector<std::unique_ptr<SetTimesSearch>> searches(
      static_cast<std::size_t>(pool ? num_threads + 1 : 1));
  auto local_search = [&]() -> SetTimesSearch& {
    const int wid = pool ? ThreadPool::current_worker_id() : -1;
    auto& slot = searches[wid >= 0 ? static_cast<std::size_t>(wid)
                                   : searches.size() - 1];
    if (!slot) slot = std::make_unique<SetTimesSearch>(root);
    return *slot;
  };

  // Shared incumbent late-count: workers publish every solution they
  // find and cut branches that strictly exceed it. The winner fold below
  // stays bit-identical to the sequential semantics because a search
  // that ties the bound is never cut (see SearchLimits::shared_late_bound).
  std::atomic<int> shared_late{best.valid ? best.num_late
                                          : std::numeric_limits<int>::max()};
  MRCP_AUDIT_ONLY(audit::SharedBoundAuditor bound_auditor;)
  auto descent_limits = [&](double floor_s) {
    SearchLimits limits;
    limits.max_fails = 0;
    limits.stop_after_first_solution = true;
    limits.postpone_tries = 0;
    limits.time_limit_s = std::max(remaining(), floor_s);
    limits.shared_late_bound = &shared_late;
    limits.hard_deadline = params.hard_deadline;
    MRCP_AUDIT_ONLY(limits.bound_auditor = &bound_auditor;)
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

  // Members are built lazily: member 0 computes its ranks and intra-job
  // flags only when it runs, and the others only once member 0 has
  // missed the root bound, so a portfolio cut short at the bound pays for
  // the members it ran. Fan-out runs each member index on exactly one
  // thread, which alone writes its result slot.
  struct Member {
    JobOrdering ordering;
    IntraOrder intra;
    std::vector<int> ranks;
    std::vector<std::uint8_t> lpt;
    bool built = false;
    /// Earlier member with the same (ranks, lpt) key, or -1. A descent is
    /// a function of its key alone, so a repeat would return that
    /// member's solution again and can never win the fold below.
    int repeat_of = -1;
  };
  std::vector<Member> members;
  members.reserve(params.portfolio.size() * std::size(kIntraOrders));
  for (JobOrdering ordering : params.portfolio) {
    for (IntraOrder intra : kIntraOrders) {
      members.push_back(Member{ordering, intra, {}, {}});
    }
  }
  auto build_member = [&](Member& m) {
    if (m.built) return;
    m.built = true;
    m.ranks = make_job_ranks(model, m.ordering);
    switch (m.intra) {
      case IntraOrder::kAdaptive: m.lpt = adaptive_lpt_flags(model); break;
      case IntraOrder::kFifo: m.lpt.assign(model.num_jobs(), 0); break;
      case IntraOrder::kLpt: m.lpt.assign(model.num_jobs(), 1); break;
    }
  };
  auto same_key = [](const Member& a, const Member& b) {
    return a.ranks == b.ranks && a.lpt == b.lpt;
  };

  // Root-bound stop: the statically-late jobs are late in every leaf, so
  // no solution has fewer than root.late_count() late jobs, and once the
  // warm start or member k reaches that count the fold below (strictly
  // fewer wins) can pick nothing after k. `skip_from` is the first member
  // index to skip: 0 for a warm start at the bound, else lowered to k + 1
  // by a fetch-min. A member is thus skipped only in favour of the warm
  // start or a lower-index member — never of a higher-index one that
  // happened to finish first on the pool path — so the fold picks the
  // winner the sequential run picks.
  const int lower_bound = root.late_count();
  auto at_bound = [&](const Solution& sol) {
    return sol.valid && sol.num_late <= lower_bound;
  };
  std::atomic<std::size_t> skip_from{
      at_bound(best) ? 0 : std::numeric_limits<std::size_t>::max()};
  std::vector<ResultSlot> member_results(members.size());
  auto run_member = [&](std::size_t i) {
    // An exhausted budget skips the member before any setup — the same
    // monotone check on both the sequential and the pool path, so both
    // do identical work when the budget binds (slot stays ran = false).
    if (remaining() <= 0.0 && best.valid) return;
    if (i >= skip_from.load()) return;
    ResultSlot& out = member_results[i];
    out.ran = true;
    const SearchLimits limits = descent_limits(0.05);
    SetTimesSearch& search = local_search();
    build_member(members[i]);
    search.reset(members[i].ranks, members[i].lpt);
    out.sol = search.run(limits, nullptr, &out.stats);
    if (at_bound(out.sol)) {
      std::size_t cur = skip_from.load();
      while (i + 1 < cur && !skip_from.compare_exchange_weak(cur, i + 1)) {
      }
    }
  };
  // Member 0 runs alone: most solves end there, at the bound. Otherwise
  // every key is built and repeats are marked in member order before the
  // fan-out, so the pool and the sequential path run the same members.
  run_member(0);
  if (skip_from.load() > 1) {
    std::vector<std::size_t> distinct;
    for (std::size_t i = 0; i < members.size(); ++i) {
      build_member(members[i]);
      for (std::size_t j = 0; j < i && members[i].repeat_of < 0; ++j) {
        if (same_key(members[i], members[j])) {
          members[i].repeat_of = static_cast<int>(j);
        }
      }
      if (i > 0 && members[i].repeat_of < 0) distinct.push_back(i);
    }
    auto run_distinct = [&](std::size_t k) { run_member(distinct[k]); };
    if (pool && distinct.size() > 1) {
      pool->run_indexed(distinct.size(), run_distinct);
    } else {
      for (std::size_t k = 0; k < distinct.size(); ++k) run_distinct(k);
    }
  }
  // Post-barrier audit, before the fold consumes the member solutions:
  // every member that ran must have produced a constraint-satisfying
  // solution, and the fold below must land exactly on the best late-count
  // in the member set — a pure function of (warm start, member order),
  // which is what makes the winner independent of thread count and
  // completion timing. A member that did not run was skipped by the
  // exhausted budget, because the warm start or a lower-index member had
  // already reached the root bound, or as a repeat of an earlier
  // member's key.
  MRCP_AUDIT_ONLY(
      int audit_expected_late = best.valid ? best.num_late
                                           : std::numeric_limits<int>::max();
      bool audit_bound_before = at_bound(best);
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (!member_results[i].ran) {
          const int j = members[i].repeat_of;
          const bool repeat =
              j >= 0 && static_cast<std::size_t>(j) < i &&
              same_key(members[i], members[static_cast<std::size_t>(j)]);
          MRCP_CHECK_MSG(audit_bound_before || remaining() <= 0.0 || repeat,
                         "portfolio skip audit: member skipped with neither "
                         "an earlier incumbent at the root bound, an "
                         "exhausted budget nor an earlier member's key");
          continue;
        }
        audit_bound_before =
            audit_bound_before || at_bound(member_results[i].sol);
        if (!member_results[i].sol.valid) continue;
        MRCP_AUDIT_CHECK(validate_solution(model, member_results[i].sol));
        if (model.num_tasks() <= audit::kAuditModelSizeLimit) {
          MRCP_AUDIT_CHECK(
              audit::brute_force_check_solution(model, member_results[i].sol));
        }
        audit_expected_late =
            std::min(audit_expected_late, member_results[i].sol.num_late);
      })
  // Deterministic winner fold, in member order — identical to running
  // the members sequentially. Selection is keyed on the primary
  // objective only: the completion-time tie-break would otherwise always
  // pick all-LPT by an epsilon, re-synchronizing task endings and
  // hurting future arrivals the current model cannot see. Member keys
  // stay in place: LNS seeds its memo from them below.
  const std::size_t first_skipped = skip_from.load();
  int fold_late = best.valid ? best.num_late : std::numeric_limits<int>::max();
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i].repeat_of >= 0 && i < first_skipped) {
      ++stats.repeat_descents_skipped;
    }
    if (!member_results[i].ran) continue;
    ++stats.portfolio_members_run;
    account(member_results[i].stats);
    const Solution& sol = member_results[i].sol;
    if (sol.valid && sol.num_late < fold_late) {
      fold_late = sol.num_late;
      stats.winning_member = static_cast<int>(i);
    }
  }
  if (stats.winning_member >= 0) {
    const auto w = static_cast<std::size_t>(stats.winning_member);
    best = std::move(member_results[w].sol);
    best_ranks = members[w].ranks;
    best_lpt = members[w].lpt;
    stats.best_ordering = members[w].ordering;
  }
  MRCP_AUDIT_ONLY({
    const int folded = best.valid ? best.num_late
                                  : std::numeric_limits<int>::max();
    MRCP_CHECK_MSG(folded == audit_expected_late,
                   "portfolio fold audit: folded incumbent does not equal "
                   "the best member late-count");
  })
  stats.portfolio_stopped_at_bound = at_bound(best);
  if (best_ranks.empty()) {
    best_ranks = make_job_ranks(model, params.portfolio.front());
  }
  stats.portfolio_seconds = timer.elapsed_seconds();

  // Phases 2 and 3 can only help while some job is late.
  const bool improvable = best.valid && best.num_late > 0;

  // Phase 2: branch-and-bound improvement from the portfolio incumbent.
  if (improvable && params.improvement_fails > 0 && remaining() > 0.0) {
    SetTimesSearch& search = local_search();
    search.reset(best_ranks, best_lpt);
    SearchLimits limits;
    limits.max_fails = params.improvement_fails;
    limits.postpone_tries = params.postpone_tries;
    limits.time_limit_s = remaining();
    limits.hard_deadline = params.hard_deadline;
    SearchStats st;
    Solution sol = search.run(limits, &best, &st);
    account(st);
    if (st.exhausted) stats.proved_optimal = true;
    if (sol.better_than(best)) best = sol;
  }
  stats.improvement_seconds =
      timer.elapsed_seconds() - stats.portfolio_seconds;

  // Phase 3: LNS — promote a (random) late job to the front of the
  // ranking and take a fresh first descent. Neighbourhoods are generated
  // and evaluated `lns_batch` at a time; every neighbourhood of a round
  // derives from the incumbent at the start of the round, with the RNG
  // drawn in generation order, and acceptance folds in that same order —
  // so the outcome depends on lns_batch but not on num_threads.
  if (improvable && params.lns_iterations > 0) {
    RandomStream rng(params.seed, 0x1A5);
    const int batch = std::max(1, params.lns_batch);
    struct Neighbourhood {
      std::vector<int> ranks;
      std::vector<std::uint8_t> lpt;
    };
    // Descent memo: the (ranks, lpt) keys this solve has already taken.
    // A re-run returns the same solution or is cut by the shared bound,
    // and neither passes better_than(best), so a neighbourhood whose key
    // is here is skipped (its RNG draws still happen). A member's key
    // enters only if its solution is not better_than the incumbent: the
    // portfolio fold compares late counts alone, so a member that ties
    // the winner with a smaller total completion would be accepted here.
    // Only members the sequential run reaches count, so the memo is the
    // same on the pool path, where later members may finish anyway.
    std::set<std::pair<std::vector<int>, std::vector<std::uint8_t>>> taken;
    for (std::size_t i = 0; i < members.size() && i < first_skipped; ++i) {
      const bool winner = static_cast<int>(i) == stats.winning_member;
      if (member_results[i].ran &&
          (winner || !member_results[i].sol.better_than(best))) {
        taken.emplace(members[i].ranks, members[i].lpt);
      }
    }
    int iters_left = params.lns_iterations;
    std::vector<ResultSlot> round_results;
    while (iters_left > 0) {
      if (best.num_late == 0 || remaining() <= 0.0) break;
      // Collect currently-late jobs.
      std::vector<std::size_t> late_jobs;
      for (std::size_t j = 0; j < best.job_late.size(); ++j) {
        if (best.job_late[j]) late_jobs.push_back(j);
      }
      if (late_jobs.empty()) break;

      const int round = std::min(batch, iters_left);
      iters_left -= round;
      std::vector<Neighbourhood> nbhs;
      nbhs.reserve(static_cast<std::size_t>(round));
      for (int r = 0; r < round; ++r) {
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
        nbhs.push_back(Neighbourhood{std::move(ranks), std::move(lpt)});
      }

      // Between rounds no worker is running (post-barrier), and the fold
      // above already absorbed every published solution, so this reset
      // can never raise the bound — audited in MRCP_AUDIT builds.
      MRCP_AUDIT_ONLY(bound_auditor.on_reset(best.num_late, shared_late);)
      shared_late.store(best.num_late, std::memory_order_relaxed);
      round_results.assign(nbhs.size(), ResultSlot{});
      auto run_neighbourhood = [&](std::size_t r) {
        const SearchLimits limits = descent_limits(0.01);
        SetTimesSearch& search = local_search();
        search.reset(nbhs[r].ranks, nbhs[r].lpt);
        round_results[r].sol = search.run(limits, nullptr, &round_results[r].stats);
      };
      if (pool && nbhs.size() > 1) {
        pool->run_indexed(nbhs.size(), run_neighbourhood);
      } else {
        for (std::size_t r = 0; r < nbhs.size(); ++r) run_neighbourhood(r);
      }
      MRCP_AUDIT_ONLY(
          for (std::size_t r = 0; r < nbhs.size(); ++r) {
            if (!round_results[r].sol.valid) continue;
            MRCP_AUDIT_CHECK(validate_solution(model, round_results[r].sol));
          })
      for (std::size_t r = 0; r < nbhs.size(); ++r) {
        account(round_results[r].stats);
        if (round_results[r].sol.better_than(best)) {
          best = std::move(round_results[r].sol);
          best_ranks = std::move(nbhs[r].ranks);
          best_lpt = std::move(nbhs[r].lpt);
          ++stats.lns_improvements;
        }
      }
    }
  }
  stats.lns_seconds = timer.elapsed_seconds() - stats.portfolio_seconds -
                      stats.improvement_seconds;

  // Final-answer audit: the returned schedule must satisfy every model
  // constraint (independent brute-force oracle on small models), and the
  // shared bound must have stayed a running minimum throughout.
  MRCP_AUDIT_ONLY({
    if (best.valid) {
      MRCP_AUDIT_CHECK(validate_solution(model, best));
      if (model.num_tasks() <= audit::kAuditModelSizeLimit) {
        MRCP_AUDIT_CHECK(audit::brute_force_check_solution(model, best));
      }
    }
    MRCP_AUDIT_CHECK(bound_auditor.error());
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
