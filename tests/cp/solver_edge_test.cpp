// Edge-case and budget-behaviour tests for the solver layer.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "cp/solver.h"

namespace mrcp::cp {
namespace {

Model contended_model(int jobs, std::uint64_t seed) {
  RandomStream rng(seed, 0);
  Model m;
  m.add_resource(2, 2);
  for (int j = 0; j < jobs; ++j) {
    const Time est{rng.uniform_int(0, 20)};
    const Time work{rng.uniform_int(50, 120)};
    // Deliberately tight deadlines so late jobs exist and LNS has work.
    const CpJobIndex cj = m.add_job(est, est + work + Time{rng.uniform_int(0, 60)}, j);
    m.add_task(cj, Phase::kMap, work);
    m.add_task(cj, Phase::kReduce, Time{rng.uniform_int(10, 40)});
  }
  return m;
}

TEST(SolverEdge, ZeroBudgetsStillReturnCompleteSchedule) {
  const Model m = contended_model(6, 1);
  SolveParams p;
  p.improvement_fails = 0;
  p.lns_iterations = 0;
  p.time_limit_s = 0.0;  // exhausted immediately — first descent must win out
  const SolveResult r = solve(m, p);
  ASSERT_TRUE(r.best.valid);
  EXPECT_EQ(validate_solution(m, r.best), "");
}

TEST(SolverEdge, MoreBudgetNeverWorse) {
  const Model m = contended_model(8, 3);
  SolveParams small;
  small.improvement_fails = 0;
  small.lns_iterations = 0;
  SolveParams big;
  big.improvement_fails = 5000;
  big.lns_iterations = 50;
  big.time_limit_s = 5.0;
  const SolveResult a = solve(m, small);
  const SolveResult b = solve(m, big);
  EXPECT_LE(b.best.num_late, a.best.num_late);
}

TEST(SolverEdge, LnsImprovementsAreCounted) {
  // Over several seeds, at least one contended instance should record an
  // LNS improvement (the counter is otherwise hard to pin down
  // deterministically without over-fitting to solver internals).
  int total_improvements = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Model m = contended_model(8, seed);
    SolveParams p;
    p.improvement_fails = 0;  // leave all improvement to LNS
    p.lns_iterations = 40;
    p.time_limit_s = 5.0;
    p.seed = seed;
    total_improvements += solve(m, p).stats.lns_improvements;
  }
  EXPECT_GT(total_improvements, 0);
}

TEST(SolverEdge, ProvedOptimalOnZeroLate) {
  Model m;
  m.add_resource(4, 4);
  const CpJobIndex j = m.add_job(Time{0}, Time{100000}, 0);
  m.add_task(j, Phase::kMap, Time{10});
  const SolveResult r = solve(m, SolveParams{});
  EXPECT_EQ(r.best.num_late, 0);
  EXPECT_TRUE(r.stats.proved_optimal);
}

TEST(SolverEdge, NotProvedOptimalWhenLateAndBudgetTiny) {
  // Two slots, four identical jobs: two finish on time, two must be
  // late. The alternative/postpone branching tree is far larger than a
  // one-fail budget, and lateness only shows up deep in the tree (no
  // job is statically late), so the cut-off search must not claim an
  // optimality proof.
  Model m;
  m.add_resource(1, 1);
  m.add_resource(1, 1);
  for (int j = 0; j < 4; ++j) {
    const CpJobIndex job = m.add_job(Time{0}, Time{70}, j);
    m.add_task(job, Phase::kMap, Time{60});
  }
  SolveParams p;
  p.improvement_fails = 1;  // cannot exhaust the space
  p.lns_iterations = 0;
  const SolveResult r = solve(m, p);
  EXPECT_GE(r.best.num_late, 1);
  EXPECT_FALSE(r.stats.proved_optimal);
}

TEST(SolverEdge, ExhaustedBranchAndBoundAboveRootBoundIsFeasible) {
  // One slot, two jobs whose 60-tick tasks must both end by 70: one job
  // is late in every schedule, yet neither is late alone, so the root
  // bound is 0. The B&B tree over one job order is tiny and exhausts,
  // which proves nothing about other orders: the status stays kFeasible.
  Model m;
  m.add_resource(1, 1);
  for (int j = 0; j < 2; ++j) {
    const CpJobIndex job = m.add_job(Time{0}, Time{70}, j);
    m.add_task(job, Phase::kMap, Time{60});
  }
  SolveParams p;
  p.improvement_fails = 100000;
  p.lns_iterations = 0;
  ASSERT_EQ(SearchRoot(m).late_count(), 0);
  SetTimesSearch bnb(m, make_job_ranks(m, p.portfolio.front()));
  SearchLimits limits;
  limits.max_fails = p.improvement_fails;
  limits.postpone_tries = p.postpone_tries;
  SearchStats st;
  ASSERT_TRUE(bnb.run(limits, nullptr, &st).valid);
  ASSERT_TRUE(st.exhausted);

  const SolveResult r = solve(m, p);
  EXPECT_EQ(r.best.num_late, 1);
  EXPECT_FALSE(r.stats.proved_optimal);
  EXPECT_EQ(r.status, SolveStatus::kFeasible);
}

TEST(SolverEdge, ProvedOptimalAtRootBound) {
  // Job 0's task alone overruns its deadline, so it is late in every
  // schedule (root bound 1); job 1 fits beside it. One late job meets
  // the bound, which proves the plan optimal.
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex late = m.add_job(Time{0}, Time{50}, 0);
  m.add_task(late, Phase::kMap, Time{60});
  const CpJobIndex fits = m.add_job(Time{0}, Time{200}, 1);
  m.add_task(fits, Phase::kMap, Time{60});
  ASSERT_EQ(SearchRoot(m).late_count(), 1);
  const SolveResult r = solve(m, SolveParams{});
  EXPECT_EQ(r.best.num_late, 1);
  EXPECT_TRUE(r.stats.proved_optimal);
  EXPECT_EQ(r.status, SolveStatus::kOptimal);
}

TEST(SolverEdge, SingleOrderingPortfolioWorks) {
  const Model m = contended_model(5, 7);
  SolveParams p;
  p.portfolio = {JobOrdering::kFcfs};
  const SolveResult r = solve(m, p);
  ASSERT_TRUE(r.best.valid);
  EXPECT_EQ(validate_solution(m, r.best), "");
  EXPECT_EQ(r.stats.best_ordering, JobOrdering::kFcfs);
}

TEST(SolverEdge, DecisionsAndFailsAccumulate) {
  const Model m = contended_model(8, 9);
  SolveParams p;
  p.improvement_fails = 500;
  p.lns_iterations = 10;
  const SolveResult r = solve(m, p);
  EXPECT_GT(r.stats.decisions, 0);
  EXPECT_GT(r.stats.solutions, 0);
}

TEST(SolverEdge, ManyIdenticalJobsStable) {
  Model m;
  m.add_resource(10, 10);
  for (int j = 0; j < 30; ++j) {
    const CpJobIndex cj = m.add_job(Time{0}, Time{5000}, j);
    m.add_task(cj, Phase::kMap, Time{100});
    m.add_task(cj, Phase::kReduce, Time{100});
  }
  const SolveResult r = solve(m, SolveParams{});
  EXPECT_EQ(validate_solution(m, r.best), "");
  EXPECT_EQ(r.best.num_late, 0);  // 30x200 work over 10+10 slots, loose d
}

TEST(SolverEdge, PinnedOnlyModelEvaluates) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{50}, 0);
  const CpTaskIndex t = m.add_task(j, Phase::kMap, Time{100});
  m.pin_task(t, 0, Time{10});  // ends at 110 > 50: late, and nothing to decide
  const SolveResult r = solve(m, SolveParams{});
  ASSERT_TRUE(r.best.valid);
  EXPECT_EQ(r.best.num_late, 1);
  EXPECT_EQ(r.best.placements[0].start, Time{10});
}

}  // namespace
}  // namespace mrcp::cp
