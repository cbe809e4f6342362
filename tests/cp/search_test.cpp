#include "cp/search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace mrcp::cp {
namespace {

SearchLimits default_limits() {
  SearchLimits l;
  l.max_fails = 10000;
  l.time_limit_s = 5.0;
  l.postpone_tries = 2;
  return l;
}

Solution run_search(const Model& m, JobOrdering ordering = JobOrdering::kEdf,
                    SearchLimits limits = default_limits()) {
  SetTimesSearch search(m, make_job_ranks(m, ordering));
  SearchStats stats;
  Solution sol = search.run(limits, nullptr, &stats);
  EXPECT_TRUE(sol.valid);
  EXPECT_EQ(validate_solution(m, sol), "");
  return sol;
}

TEST(JobRanks, EdfOrdersByDeadline) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex a = m.add_job(Time{0}, Time{300}, 0);
  m.add_task(a, Phase::kMap, Time{10});
  const CpJobIndex b = m.add_job(Time{0}, Time{100}, 1);
  m.add_task(b, Phase::kMap, Time{10});
  const auto ranks = make_job_ranks(m, JobOrdering::kEdf);
  EXPECT_GT(ranks[0], ranks[1]);  // b (earlier deadline) first
}

TEST(JobRanks, LeastLaxityUsesRemainingWork) {
  Model m;
  m.add_resource(2, 2);
  // Job 0: deadline 100, work 10 -> laxity 90.
  const CpJobIndex a = m.add_job(Time{0}, Time{100}, 0);
  m.add_task(a, Phase::kMap, Time{10});
  // Job 1: deadline 120, work 100 -> laxity 20: scheduled first.
  const CpJobIndex b = m.add_job(Time{0}, Time{120}, 1);
  m.add_task(b, Phase::kMap, Time{100});
  const auto ranks = make_job_ranks(m, JobOrdering::kLeastLaxity);
  EXPECT_GT(ranks[0], ranks[1]);
}

TEST(JobRanks, JobIdUsesExternalId) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex a = m.add_job(Time{0}, Time{100}, 42);
  m.add_task(a, Phase::kMap, Time{10});
  const CpJobIndex b = m.add_job(Time{0}, Time{50}, 7);
  m.add_task(b, Phase::kMap, Time{10});
  const auto ranks = make_job_ranks(m, JobOrdering::kJobId);
  EXPECT_GT(ranks[0], ranks[1]);  // external id 7 before 42
}

TEST(JobRanks, FcfsUsesEarliestStart) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex a = m.add_job(Time{200}, Time{1000}, 0);
  m.add_task(a, Phase::kMap, Time{10});
  const CpJobIndex b = m.add_job(Time{100}, Time{2000}, 1);
  m.add_task(b, Phase::kMap, Time{10});
  const auto ranks = make_job_ranks(m, JobOrdering::kFcfs);
  EXPECT_GT(ranks[0], ranks[1]);
}

TEST(SetTimes, SingleTaskStartsAtEst) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{25}, Time{200});
  m.add_task(j, Phase::kMap, Time{10});
  const Solution sol = run_search(m);
  EXPECT_EQ(sol.placements[0].start, Time{25});
  EXPECT_EQ(sol.num_late, 0);
}

TEST(SetTimes, MapsThenReduceLeftPacked) {
  Model m;
  m.add_resource(2, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{1000});
  m.add_task(j, Phase::kMap, Time{20});
  m.add_task(j, Phase::kMap, Time{30});
  m.add_task(j, Phase::kReduce, Time{40});
  const Solution sol = run_search(m);
  EXPECT_EQ(sol.job_completion[0], Time{70});  // maps parallel (end 30), reduce 30-70
  EXPECT_EQ(sol.num_late, 0);
}

TEST(SetTimes, SerializesOnSingleSlot) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{1000});
  m.add_task(j, Phase::kMap, Time{20});
  m.add_task(j, Phase::kMap, Time{30});
  const Solution sol = run_search(m);
  EXPECT_EQ(sol.job_completion[0], Time{50});
}

TEST(SetTimes, ChoosesLessLoadedResource) {
  Model m;
  m.add_resource(1, 1);
  m.add_resource(1, 1);
  const CpJobIndex j0 = m.add_job(Time{0}, Time{1000}, 0);
  m.add_task(j0, Phase::kMap, Time{50});
  const CpJobIndex j1 = m.add_job(Time{0}, Time{1000}, 1);
  m.add_task(j1, Phase::kMap, Time{50});
  const Solution sol = run_search(m);
  // Both should run in parallel on different resources.
  EXPECT_EQ(sol.placements[0].start, Time{0});
  EXPECT_EQ(sol.placements[1].start, Time{0});
  EXPECT_NE(sol.placements[0].resource, sol.placements[1].resource);
}

TEST(SetTimes, PinnedTaskKeptInPlace) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{1000});
  const CpTaskIndex t0 = m.add_task(j, Phase::kMap, Time{30});
  m.add_task(j, Phase::kMap, Time{10});
  m.pin_task(t0, 0, Time{5});  // occupies [5, 35)
  const Solution sol = run_search(m);
  EXPECT_EQ(sol.placements[0].start, Time{5});
  EXPECT_EQ(sol.placements[0].resource, 0);
  // Second map fits before (0..10? no: [0,10) overlaps [5,35)) -> at 35.
  EXPECT_EQ(sol.placements[1].start, Time{35});
}

TEST(SetTimes, GapFillingBeforePinnedTask) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{1000});
  const CpTaskIndex t0 = m.add_task(j, Phase::kMap, Time{30});
  m.add_task(j, Phase::kMap, Time{10});
  m.pin_task(t0, 0, Time{20});  // busy [20, 50)
  const Solution sol = run_search(m);
  EXPECT_EQ(sol.placements[1].start, Time{0});  // fills the [0, 20) gap
}

TEST(SetTimes, EdfOrderingMeetsDeadlinesIdOrderingMisses) {
  // Two jobs on one slot: job 0 (id first) has a loose deadline, job 1 a
  // tight one. The search is conditioned on the job ordering: under EDF
  // both deadlines are met; under job-id order job 1 is late and no
  // placement branching can fix it (reordering jobs is the solver
  // portfolio's role — see solver_test.cpp).
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j0 = m.add_job(Time{0}, Time{200}, 0);
  m.add_task(j0, Phase::kMap, Time{80});
  const CpJobIndex j1 = m.add_job(Time{0}, Time{60}, 1);
  m.add_task(j1, Phase::kMap, Time{50});

  const Solution edf = run_search(m, JobOrdering::kEdf);
  EXPECT_EQ(edf.num_late, 0);

  const Solution id_order = run_search(m, JobOrdering::kJobId);
  EXPECT_EQ(id_order.num_late, 1);
}

TEST(SetTimes, FirstSolutionOnlyGreedy) {
  // Same instance; restricted to the first descent, job-id order stays
  // late — demonstrating the limits knob.
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j0 = m.add_job(Time{0}, Time{200}, 0);
  m.add_task(j0, Phase::kMap, Time{80});
  const CpJobIndex j1 = m.add_job(Time{0}, Time{60}, 1);
  m.add_task(j1, Phase::kMap, Time{50});

  SearchLimits limits = default_limits();
  limits.stop_after_first_solution = true;
  limits.max_fails = 0;
  SetTimesSearch search(m, make_job_ranks(m, JobOrdering::kJobId));
  SearchStats stats;
  const Solution sol = search.run(limits, nullptr, &stats);
  ASSERT_TRUE(sol.valid);
  EXPECT_EQ(sol.num_late, 1);
  EXPECT_EQ(stats.solutions, 1);
}

TEST(SetTimes, LptOrderIsDurationDescendingThenIndex) {
  // An all-LPT first descent fixes each phase longest first, equal
  // durations by task index. On one slot per phase nothing overlaps, so
  // the start order is the decision order. Durations past 2^32 need the
  // order's keys in full.
  constexpr std::int64_t kBig = std::int64_t{1} << 32;
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{16 * kBig}, 0);
  const std::vector<std::int64_t> maps = {5, 2 * kBig, 7, 2 * kBig, 5,
                                          kBig + 1, 7, 1, kBig - 1};
  const std::vector<std::int64_t> reduces = {3, kBig + 3, 3, kBig + 3};
  for (const std::int64_t d : maps) m.add_task(j, Phase::kMap, Time{d});
  for (const std::int64_t d : reduces) m.add_task(j, Phase::kReduce, Time{d});

  SearchLimits limits = default_limits();
  limits.stop_after_first_solution = true;
  limits.max_fails = 0;
  limits.postpone_tries = 0;
  SetTimesSearch search(m, make_job_ranks(m, JobOrdering::kEdf), {1});
  SearchStats stats;
  const Solution sol = search.run(limits, nullptr, &stats);
  ASSERT_TRUE(sol.valid);
  std::vector<CpTaskIndex> by_start(m.num_tasks());
  for (std::size_t t = 0; t < by_start.size(); ++t) {
    by_start[t] = static_cast<CpTaskIndex>(t);
  }
  std::sort(by_start.begin(), by_start.end(),
            [&](CpTaskIndex a, CpTaskIndex b) {
              return sol.placements[static_cast<std::size_t>(a)].start <
                     sol.placements[static_cast<std::size_t>(b)].start;
            });
  const std::vector<CpTaskIndex> want = {1, 3, 5, 8, 2, 6, 0, 4, 7,
                                         10, 12, 9, 11};
  EXPECT_EQ(by_start, want);
}

TEST(SetTimes, UnavoidablyLateJobCounted) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{10});
  m.add_task(j, Phase::kMap, Time{50});  // cannot possibly meet deadline 10
  const Solution sol = run_search(m);
  EXPECT_EQ(sol.num_late, 1);
  EXPECT_EQ(sol.job_late[0], 1);
}

TEST(SetTimes, EmptyModelYieldsEmptySolution) {
  Model m;
  m.add_resource(1, 1);
  SetTimesSearch search(m, {});
  SearchStats stats;
  const Solution sol = search.run(default_limits(), nullptr, &stats);
  EXPECT_TRUE(sol.valid);
  EXPECT_EQ(sol.num_late, 0);
  EXPECT_TRUE(stats.exhausted);
}

TEST(SetTimes, AllTasksPinnedIsEvaluatedOnly) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{100});
  const CpTaskIndex t = m.add_task(j, Phase::kMap, Time{30});
  m.pin_task(t, 0, Time{0});
  SetTimesSearch search(m, make_job_ranks(m, JobOrdering::kEdf));
  SearchStats stats;
  const Solution sol = search.run(default_limits(), nullptr, &stats);
  EXPECT_TRUE(sol.valid);
  EXPECT_EQ(sol.placements[0].start, Time{0});
  EXPECT_EQ(sol.job_completion[0], Time{30});
  EXPECT_EQ(sol.num_late, 0);
}

TEST(SetTimes, RespectsCandidateRestriction) {
  Model m;
  m.add_resource(1, 1);
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{1000});
  const CpTaskIndex t = m.add_task(j, Phase::kMap, Time{10});
  m.restrict_candidates(t, {1});
  const Solution sol = run_search(m);
  EXPECT_EQ(sol.placements[0].resource, 1);
}

TEST(SetTimes, IncumbentPrunesToNoWorseSolution) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j0 = m.add_job(Time{0}, Time{200}, 0);
  m.add_task(j0, Phase::kMap, Time{80});
  const CpJobIndex j1 = m.add_job(Time{0}, Time{60}, 1);
  m.add_task(j1, Phase::kMap, Time{50});
  // First find the optimum, then re-run with it as incumbent: the result
  // must not regress.
  const Solution best = run_search(m, JobOrdering::kEdf);
  SetTimesSearch search(m, make_job_ranks(m, JobOrdering::kJobId));
  SearchStats stats;
  const Solution sol = search.run(default_limits(), &best, &stats);
  EXPECT_LE(sol.num_late, best.num_late);
}

TEST(SetTimes, ReduceWaitsForAllMapsAcrossResources) {
  Model m;
  m.add_resource(1, 1);
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{1000});
  m.add_task(j, Phase::kMap, Time{10});
  m.add_task(j, Phase::kMap, Time{70});
  m.add_task(j, Phase::kReduce, Time{5});
  const Solution sol = run_search(m);
  // Maps in parallel end at 70; reduce starts at >= 70.
  EXPECT_GE(sol.placements[2].start, Time{70});
  EXPECT_EQ(sol.job_completion[0], Time{75});
}

TEST(SetTimes, StatsAreAccountedFor) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j0 = m.add_job(Time{0}, Time{10}, 0);
  m.add_task(j0, Phase::kMap, Time{50});
  const CpJobIndex j1 = m.add_job(Time{0}, Time{10}, 1);
  m.add_task(j1, Phase::kMap, Time{50});
  SetTimesSearch search(m, make_job_ranks(m, JobOrdering::kEdf));
  SearchStats stats;
  search.run(default_limits(), nullptr, &stats);
  EXPECT_GT(stats.decisions, 0);
  EXPECT_GE(stats.solutions, 1);
}

// Value ordering: a task's alternatives are ranked by completion on each
// resource (start + speed-scaled duration), not by start.
TEST(SetTimes, FirstDescentPrefersFastMachineFreeSlightlyLater) {
  // Resource 0 is slow and free now; resource 1 runs twice as fast but a
  // pinned task holds it until 10. The map takes 200 on resource 0 (end
  // 200) and 50 on resource 1 (end 60): the fast machine wins.
  Model m;
  m.add_resource(1, 1, /*net_capacity=*/0, /*speed_permille=*/500);
  m.add_resource(1, 1, /*net_capacity=*/0, /*speed_permille=*/2000);
  const CpJobIndex filler = m.add_job(Time{0}, Time{10000}, 9);
  const CpTaskIndex pinned = m.add_task(filler, Phase::kMap, Time{20});
  m.pin_task(pinned, 1, Time{0});
  const CpJobIndex j = m.add_job(Time{0}, Time{10000}, 0);
  const CpTaskIndex t = m.add_task(j, Phase::kMap, Time{100});
  SearchLimits limits = default_limits();
  limits.stop_after_first_solution = true;
  const Solution sol = run_search(m, JobOrdering::kEdf, limits);
  EXPECT_EQ(sol.placements[static_cast<std::size_t>(t)].resource, 1);
  EXPECT_EQ(sol.placements[static_cast<std::size_t>(t)].start, Time{10});
}

TEST(SetTimes, EqualCompletionsFollowCandidateListOrder) {
  // Three identical idle resources: every alternative ends at 50, so the
  // first one the task lists wins, not the lowest index.
  Model m;
  for (int r = 0; r < 3; ++r) m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{10000}, 0);
  const CpTaskIndex t = m.add_task(j, Phase::kMap, Time{50});
  m.restrict_candidates(t, {2, 0, 1});
  SearchLimits limits = default_limits();
  limits.stop_after_first_solution = true;
  const Solution sol = run_search(m, JobOrdering::kEdf, limits);
  EXPECT_EQ(sol.placements[static_cast<std::size_t>(t)].resource, 2);
  EXPECT_EQ(sol.placements[static_cast<std::size_t>(t)].start, Time{0});
}

TEST(SetTimes, EqualCompletionsAcrossSpeedsFollowIndexOrder) {
  // Resource 0 is slow and free now (end 0 + 100); resource 1 is twice
  // as fast and free at 50 (end 50 + 50). Without a candidate list the
  // tie goes to index order: resource 0, started first.
  Model m;
  m.add_resource(1, 1, /*net_capacity=*/0, /*speed_permille=*/1000);
  m.add_resource(1, 1, /*net_capacity=*/0, /*speed_permille=*/2000);
  const CpJobIndex filler = m.add_job(Time{0}, Time{10000}, 9);
  const CpTaskIndex pinned = m.add_task(filler, Phase::kMap, Time{100});
  m.pin_task(pinned, 1, Time{0});
  const CpJobIndex j = m.add_job(Time{0}, Time{10000}, 0);
  const CpTaskIndex t = m.add_task(j, Phase::kMap, Time{100});
  SearchLimits limits = default_limits();
  limits.stop_after_first_solution = true;
  const Solution sol = run_search(m, JobOrdering::kEdf, limits);
  EXPECT_EQ(sol.placements[static_cast<std::size_t>(t)].resource, 0);
  EXPECT_EQ(sol.placements[static_cast<std::size_t>(t)].start, Time{0});
}

TEST(JobOrderingName, Names) {
  EXPECT_STREQ(job_ordering_name(JobOrdering::kEdf), "edf");
  EXPECT_STREQ(job_ordering_name(JobOrdering::kJobId), "job-id");
  EXPECT_STREQ(job_ordering_name(JobOrdering::kLeastLaxity), "least-laxity");
  EXPECT_STREQ(job_ordering_name(JobOrdering::kFcfs), "fcfs");
}

}  // namespace
}  // namespace mrcp::cp
