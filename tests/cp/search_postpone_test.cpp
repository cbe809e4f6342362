// Focused tests of the set-times "postpone" branching and the B&B
// interplay — the part of the search that recovers schedules a pure
// greedy descent misses.
#include <gtest/gtest.h>

#include "cp/search.h"

namespace mrcp::cp {
namespace {

SearchLimits limits_with(std::int64_t fails, int postpone) {
  SearchLimits l;
  l.max_fails = fails;
  l.postpone_tries = postpone;
  l.time_limit_s = 5.0;
  return l;
}

// Instance where greedy EDF is suboptimal but postponement fixes it
// within the SAME ordering:
//   resource: 1 map slot.
//   job A (rank first, deadline 300): map 100.
//   job B (deadline 120): map 100, earliest start 0.
// EDF ranks B first (deadline 120 < 300): B at [0,100], A at [100,200]
// -> both on time. Force the *bad* order with kJobId and give B id 1:
// A at [0,100], B at [100,200] -> B late (200 > 120). Postponing A's
// start past B's slot cannot help on one machine (A would be even
// later but A's deadline 300 tolerates [100, 200]!): postpone branch
// places A at B's end... With 1 task per job and B placed after A in
// order, postponement of A to its next profile event (none at root)
// does nothing — documenting exactly which rescues work and which
// don't keeps the search's limits honest.
TEST(Postpone, RootPostponeHasNoEventToSkipTo) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex a = m.add_job(Time{0}, Time{300}, 0);
  m.add_task(a, Phase::kMap, Time{100});
  const CpJobIndex b = m.add_job(Time{0}, Time{120}, 1);
  m.add_task(b, Phase::kMap, Time{100});

  SetTimesSearch search(m, make_job_ranks(m, JobOrdering::kJobId));
  SearchStats st;
  const Solution sol = search.run(limits_with(10000, 3), nullptr, &st);
  ASSERT_TRUE(sol.valid);
  // Order A-then-B on an empty machine: no profile events precede A's
  // placement, so no postpone branch exists and B stays late.
  EXPECT_EQ(sol.num_late, 1);
  EXPECT_TRUE(st.exhausted);
}

// With pinned tasks creating profile structure, postponement has events
// to skip past and recovers the optimum. Layout (one map slot):
//   pinned fillers [0, 50) and [110, 160);
//   job A (rank first, loose deadline): map 60 — greedy takes the exact
//     gap [50, 110);
//   job B (deadline 219): map 60 — greedy then lands [160, 220): late.
// Postponing A past the next profile event (110) frees the gap for B.
TEST(Postpone, SkipsPastPinnedTaskToMeetDeadline) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex filler = m.add_job(Time{0}, Time{100000}, 9);
  const CpTaskIndex pin1 = m.add_task(filler, Phase::kMap, Time{50});
  const CpTaskIndex pin2 = m.add_task(filler, Phase::kMap, Time{50});
  m.pin_task(pin1, 0, Time{0});
  m.pin_task(pin2, 0, Time{110});
  const CpJobIndex a = m.add_job(Time{0}, Time{100000}, 0);
  m.add_task(a, Phase::kMap, Time{60});
  const CpJobIndex b = m.add_job(Time{0}, Time{219}, 1);
  m.add_task(b, Phase::kMap, Time{60});

  // Greedy job-id order: A fills [50, 110), B lands [160, 220) -> late.
  SetTimesSearch greedy(m, make_job_ranks(m, JobOrdering::kJobId));
  SearchLimits greedy_limits = limits_with(0, 0);
  greedy_limits.stop_after_first_solution = true;
  SearchStats st0;
  const Solution g = greedy.run(greedy_limits, nullptr, &st0);
  EXPECT_EQ(g.num_late, 1);

  // Full search with postponement: A postpones past the second filler.
  SetTimesSearch full(m, make_job_ranks(m, JobOrdering::kJobId));
  SearchStats st1;
  const Solution best = full.run(limits_with(10000, 3), nullptr, &st1);
  EXPECT_EQ(best.num_late, 0) << "postpone branching should rescue job B";
  EXPECT_EQ(validate_solution(m, best), "");
}

TEST(Postpone, ZeroTriesDisablesDelayedBranches) {
  // Same instance as SkipsPastPinnedTaskToMeetDeadline; with
  // postpone_tries = 0 the only branches are resource choices (one
  // resource here), so the late schedule stands even with a big budget.
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex filler = m.add_job(Time{0}, Time{100000}, 9);
  const CpTaskIndex pin1 = m.add_task(filler, Phase::kMap, Time{50});
  const CpTaskIndex pin2 = m.add_task(filler, Phase::kMap, Time{50});
  m.pin_task(pin1, 0, Time{0});
  m.pin_task(pin2, 0, Time{110});
  const CpJobIndex a = m.add_job(Time{0}, Time{100000}, 0);
  m.add_task(a, Phase::kMap, Time{60});
  const CpJobIndex b = m.add_job(Time{0}, Time{219}, 1);
  m.add_task(b, Phase::kMap, Time{60});

  SetTimesSearch search(m, make_job_ranks(m, JobOrdering::kJobId));
  SearchStats st;
  const Solution sol = search.run(limits_with(10000, 0), nullptr, &st);
  EXPECT_EQ(sol.num_late, 1);
}

TEST(Postpone, FailLimitCountsPrunesNotTieDescents) {
  // Only B&B prunes count as fails; complete descents that merely tie
  // the incumbent are solutions, not fails. A small tree can therefore
  // be exhausted with fails below the limit — assert exactly that.
  Model m;
  m.add_resource(1, 1);
  for (int j = 0; j < 10; ++j) {
    const CpJobIndex cj = m.add_job(Time{0}, Time{80 + 5 * j}, j);
    m.add_task(cj, Phase::kMap, Time{60});
  }
  SetTimesSearch search(m, make_job_ranks(m, JobOrdering::kEdf));
  SearchStats st;
  const Solution sol = search.run(limits_with(3, 2), nullptr, &st);
  ASSERT_TRUE(sol.valid);
  EXPECT_EQ(validate_solution(m, sol), "");
  EXPECT_LE(st.fails, 3 + 1);
  EXPECT_GE(st.solutions, 1);
}

TEST(Postpone, MultiResourceBranchingPrefersEarliestStart) {
  // Two equal-speed resources, one busy early: the first branch goes to
  // the free one, which also completes first.
  Model m;
  m.add_resource(1, 1);
  m.add_resource(1, 1);
  const CpJobIndex filler = m.add_job(Time{0}, Time{10000}, 9);
  const CpTaskIndex pinned = m.add_task(filler, Phase::kMap, Time{100});
  m.pin_task(pinned, 0, Time{0});
  const CpJobIndex a = m.add_job(Time{0}, Time{10000}, 0);
  m.add_task(a, Phase::kMap, Time{50});
  SetTimesSearch search(m, make_job_ranks(m, JobOrdering::kEdf));
  SearchLimits l = limits_with(0, 0);
  l.stop_after_first_solution = true;
  SearchStats st;
  const Solution sol = search.run(l, nullptr, &st);
  EXPECT_EQ(sol.placements[1].resource, 1);
  EXPECT_EQ(sol.placements[1].start, Time{0});
}

TEST(Postpone, PostponedBranchesStayOnFirstRankedResource) {
  // Resource 0 is slow (speed 500), resource 1 fast (2000), one map slot
  // each; a pinned task holds resource 1 over [20, 40). Job order A, B.
  //   A: base 40 (80 slow, 20 fast), deadline 60 — late on resource 0.
  //   B: base 40, deadline 30 — needs resource 1's gap [0, 20).
  // A's alternatives start at 0 on both, end 80 slow and 20 fast, so the
  // fast machine ranks first and A's postponed branch skips it to 40:
  // A on [40, 60), B on [0, 20), nobody late. Postponing on resource 0
  // instead finds no event to skip to, and every schedule that puts A
  // at 0 makes one job late.
  Model m;
  m.add_resource(1, 1, /*net_capacity=*/0, /*speed_permille=*/500);
  m.add_resource(1, 1, /*net_capacity=*/0, /*speed_permille=*/2000);
  const CpJobIndex filler = m.add_job(Time{0}, Time{100000}, 9);
  const CpTaskIndex pinned = m.add_task(filler, Phase::kMap, Time{40});
  m.pin_task(pinned, 1, Time{20});
  const CpJobIndex a = m.add_job(Time{0}, Time{60}, 0);
  const CpTaskIndex ta = m.add_task(a, Phase::kMap, Time{40});
  const CpJobIndex b = m.add_job(Time{0}, Time{30}, 1);
  const CpTaskIndex tb = m.add_task(b, Phase::kMap, Time{40});

  SetTimesSearch search(m, make_job_ranks(m, JobOrdering::kJobId));
  SearchStats st;
  const Solution sol = search.run(limits_with(10000, 1), nullptr, &st);
  ASSERT_TRUE(sol.valid);
  EXPECT_EQ(validate_solution(m, sol), "");
  EXPECT_EQ(sol.num_late, 0);
  EXPECT_EQ(sol.placements[static_cast<std::size_t>(ta)].resource, 1);
  EXPECT_EQ(sol.placements[static_cast<std::size_t>(ta)].start, Time{40});
  EXPECT_EQ(sol.placements[static_cast<std::size_t>(tb)].resource, 1);
  EXPECT_EQ(sol.placements[static_cast<std::size_t>(tb)].start, Time{0});
}

}  // namespace
}  // namespace mrcp::cp
