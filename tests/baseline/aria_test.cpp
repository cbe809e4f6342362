#include "baseline/aria_estimator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "reference_minedf.h"

namespace mrcp::baseline {
namespace {

TEST(CompletionUpperBound, EmptyIsZero) {
  EXPECT_EQ(completion_upper_bound({}, 3), Time{0});
}

TEST(CompletionUpperBound, SingleSlotSums) {
  EXPECT_EQ(completion_upper_bound({Time{10}, Time{20}, Time{30}}, 1), Time{60});
}

TEST(CompletionUpperBound, GrahamBound) {
  // (sum - max)/n + max = (60-30)/2 + 30 = 45.
  EXPECT_EQ(completion_upper_bound({Time{10}, Time{20}, Time{30}}, 2), Time{45});
  // n=3: (30)/3 + 30 = 40.
  EXPECT_EQ(completion_upper_bound({Time{10}, Time{20}, Time{30}}, 3), Time{40});
}

TEST(CompletionUpperBound, CeilingDivision) {
  // (sum - max) = 25, n = 4 -> ceil(25/4) = 7, + max 10 = 17.
  EXPECT_EQ(completion_upper_bound({Time{10}, Time{10}, Time{10}, Time{5}}, 4), Time{17});
}

TEST(CompletionUpperBound, BoundIsAtLeastMax) {
  EXPECT_GE(completion_upper_bound({Time{5}, Time{50}}, 100), Time{50});
}

TEST(MinSlots, EmptyNeedsZero) {
  EXPECT_EQ(min_slots_for_budget({}, Time{100}, 8), 0);
}

TEST(MinSlots, GenerousBudgetNeedsOne) {
  EXPECT_EQ(min_slots_for_budget({Time{10}, Time{20}, Time{30}}, Time{60}, 8), 1);
  EXPECT_EQ(min_slots_for_budget({Time{10}, Time{20}, Time{30}}, Time{1000}, 8), 1);
}

TEST(MinSlots, TightBudgetNeedsMore) {
  // Budget 45 achievable with 2 slots (see GrahamBound).
  EXPECT_EQ(min_slots_for_budget({Time{10}, Time{20}, Time{30}}, Time{45}, 8), 2);
  // Budget 44 needs 3 slots: bound(3) = 40 <= 44.
  EXPECT_EQ(min_slots_for_budget({Time{10}, Time{20}, Time{30}}, Time{44}, 8), 3);
}

TEST(MinSlots, ImpossibleBudgetReturnsZero) {
  // Even unlimited slots cannot beat the longest task.
  EXPECT_EQ(min_slots_for_budget({Time{10}, Time{20}, Time{30}}, Time{29}, 8), 0);
  EXPECT_EQ(min_slots_for_budget({Time{10}, Time{20}, Time{30}}, Time{0}, 8), 0);
}

TEST(MinSlots, CapByMaxSlots) {
  // Needs 3 slots but only 2 available -> infeasible.
  EXPECT_EQ(min_slots_for_budget({Time{10}, Time{20}, Time{30}}, Time{44}, 2), 0);
}

TEST(MinSlots, InverseOfBound) {
  // For a mix of durations and budgets, min_slots_for_budget returns the
  // smallest n whose bound fits.
  const std::vector<Time> durs{Time{7}, Time{13}, Time{22}, Time{9}, Time{30}, Time{18}};
  for (Time budget = Time{30}; budget <= Time{99}; budget += Time{3}) {
    const int n = min_slots_for_budget(durs, budget, 16);
    if (n == 0) {
      EXPECT_GT(completion_upper_bound(durs, 16), budget);
      continue;
    }
    EXPECT_LE(completion_upper_bound(durs, n), budget);
    if (n > 1) {
      EXPECT_GT(completion_upper_bound(durs, n - 1), budget);
    }
  }
}

TEST(AriaAverage, AverageOfLowAndUpBounds) {
  // {60,60,60} on 2 slots: T_low = ceil(180/2) = 90,
  // T_up = ceil(2*60/2) + 60 = 120, T_avg = 105.
  EXPECT_EQ(aria_completion_estimate(std::vector<Time>{Time{60}, Time{60}, Time{60}}, 2, AriaBound::kAverage), Time{105});
  // kUpper delegates to the Graham bound.
  EXPECT_EQ(aria_completion_estimate(std::vector<Time>{Time{60}, Time{60}, Time{60}}, 2, AriaBound::kUpper), Time{120});
}

TEST(AriaAverage, EmptyAndSingle) {
  EXPECT_EQ(aria_completion_estimate(std::vector<Time>{}, 4, AriaBound::kAverage), Time{0});
  // Single task: low = ceil(d/n), up = 0/n + d = d.
  EXPECT_EQ(aria_completion_estimate(std::vector<Time>{Time{50}}, 1, AriaBound::kAverage), Time{50});
}

TEST(AriaAverage, CanClaimFeasibilityTheScheduleMisses) {
  // Budget 110 on {60,60,60}: the average estimate accepts 2 slots
  // (105 <= 110) although the true list-schedule completion is 120 —
  // the optimistic allocation that makes MinEDF-WC miss deadlines.
  EXPECT_EQ(min_slots_for_estimate(std::vector<Time>{Time{60}, Time{60}, Time{60}}, Time{110}, 2, AriaBound::kAverage),
            2);
  EXPECT_EQ(min_slots_for_estimate(std::vector<Time>{Time{60}, Time{60}, Time{60}}, Time{110}, 2, AriaBound::kUpper), 0);
}

TEST(AriaAverage, MonotoneNonIncreasingInSlots) {
  const std::vector<Time> durs{Time{7}, Time{13}, Time{22}, Time{9}, Time{30}, Time{18}, Time{44}, Time{5}};
  Time prev = aria_completion_estimate(durs, 1, AriaBound::kAverage);
  for (int n = 2; n <= 10; ++n) {
    const Time est = aria_completion_estimate(durs, n, AriaBound::kAverage);
    EXPECT_LE(est, prev);
    prev = est;
  }
}

TEST(MinimalSlotProfile, MapOnlyJob) {
  const SlotProfile p = minimal_slot_profile(std::vector<Time>{Time{10}, Time{20}, Time{30}}, std::vector<Time>{}, Time{0}, Time{45}, 8, 8);
  EXPECT_TRUE(p.feasible);
  EXPECT_EQ(p.map_slots, 2);
  EXPECT_EQ(p.reduce_slots, 0);
}

TEST(MinimalSlotProfile, ReduceOnlyJob) {
  const SlotProfile p = minimal_slot_profile(std::vector<Time>{}, std::vector<Time>{Time{10}, Time{20}, Time{30}}, Time{0}, Time{45}, 8, 8);
  EXPECT_TRUE(p.feasible);
  EXPECT_EQ(p.map_slots, 0);
  EXPECT_EQ(p.reduce_slots, 2);
}

TEST(MinimalSlotProfile, TwoPhaseSplitsBudget) {
  // Maps {30}, reduces {30}; deadline 70 from t=0: maps take 30 with one
  // slot, reduces 30 with one slot -> (1, 1) works.
  const SlotProfile p = minimal_slot_profile(std::vector<Time>{Time{30}}, std::vector<Time>{Time{30}}, Time{0}, Time{70}, 8, 8);
  EXPECT_TRUE(p.feasible);
  EXPECT_EQ(p.map_slots, 1);
  EXPECT_EQ(p.reduce_slots, 1);
}

TEST(MinimalSlotProfile, TightDeadlineNeedsParallelism) {
  // Maps: 4x25 (sum 100), reduces: 2x20 (sum 40). Deadline 75.
  // nm=2: bound = ceil(75/2)+25 = 63 > 75-40... sweep should find a
  // feasible minimal combination; verify feasibility + bound arithmetic.
  const SlotProfile p =
      minimal_slot_profile(std::vector<Time>{Time{25}, Time{25}, Time{25}, Time{25}}, std::vector<Time>{Time{20}, Time{20}}, Time{0}, Time{75}, 8, 8);
  ASSERT_TRUE(p.feasible);
  const Time t_map = completion_upper_bound({Time{25}, Time{25}, Time{25}, Time{25}}, p.map_slots);
  const Time t_red = completion_upper_bound({Time{20}, Time{20}}, p.reduce_slots);
  EXPECT_LE(t_map + t_red, Time{75});
  // Minimality: no profile with fewer total slots is feasible.
  const int total = p.map_slots + p.reduce_slots;
  for (int nm = 1; nm < 8; ++nm) {
    for (int nr = 1; nm + nr < total; ++nr) {
      EXPECT_GT(completion_upper_bound({Time{25}, Time{25}, Time{25}, Time{25}}, nm) +
                    completion_upper_bound({Time{20}, Time{20}}, nr),
                Time{75})
          << "smaller profile (" << nm << "," << nr << ") would fit";
    }
  }
}

TEST(MinimalSlotProfile, InfeasibleDeadlineReturnsMaxSlots) {
  const SlotProfile p = minimal_slot_profile(std::vector<Time>{Time{100}}, std::vector<Time>{Time{100}}, Time{0}, Time{50}, 4, 4);
  EXPECT_FALSE(p.feasible);
  EXPECT_EQ(p.map_slots, 4);
  EXPECT_EQ(p.reduce_slots, 4);
}

TEST(MinimalSlotProfile, PastDeadline) {
  const SlotProfile p = minimal_slot_profile(std::vector<Time>{Time{10}}, std::vector<Time>{Time{10}}, Time{100}, Time{50}, 4, 4);
  EXPECT_FALSE(p.feasible);
}

TEST(MinimalSlotProfile, NowOffsetsBudget) {
  // Same instance as TwoPhaseSplitsBudget but starting at t = 30 with
  // deadline 100: identical budget of 70.
  const SlotProfile p = minimal_slot_profile(std::vector<Time>{Time{30}}, std::vector<Time>{Time{30}}, Time{30}, Time{100}, 8, 8);
  EXPECT_TRUE(p.feasible);
  EXPECT_EQ(p.map_slots, 1);
  EXPECT_EQ(p.reduce_slots, 1);
}

/// Random phase statistics: empty in about one case in six, otherwise
/// 1-40 tasks whose durations come from a narrow or a heavy-tailed range.
PhaseStats random_phase(RandomStream& rng) {
  PhaseStats stats;
  if (rng.bernoulli(1.0 / 6.0)) return stats;
  const auto count = rng.uniform_int(1, 40);
  const std::int64_t top = rng.bernoulli(0.5) ? 50 : 5000;
  for (std::int64_t i = 0; i < count; ++i) {
    stats.add(Time{rng.uniform_int(1, top)});
  }
  return stats;
}

AriaBound random_bound(RandomStream& rng) {
  return rng.bernoulli(0.5) ? AriaBound::kAverage : AriaBound::kUpper;
}

// The monotone sweep (one reduce-slot search, then walk-down, cut once no
// later map-slot count can win) against the full sweep that searches the
// reduce slots for every map-slot count. Budgets span negative, zero,
// tight and generous; slot caps span 1-128.
TEST(MinimalSlotProfile, MatchesFullSweepOnRandomInputs) {
  RandomStream rng(20240615, 1);
  int feasible = 0;
  int two_phase_feasible = 0;
  for (int i = 0; i < 20000; ++i) {
    const PhaseStats maps = random_phase(rng);
    const PhaseStats reduces = random_phase(rng);
    const AriaBound bound = random_bound(rng);
    const int max_map = static_cast<int>(rng.uniform_int(1, 128));
    const int max_reduce = static_cast<int>(rng.uniform_int(1, 128));
    const Time work = maps.sum + reduces.sum;
    const Time now{rng.uniform_int(0, 1000)};
    // Mostly budgets between the longest task and the serial work, where
    // the slot counts matter; some at or below zero.
    const Time budget =
        rng.bernoulli(0.05)
            ? Time{rng.uniform_int(-100, 0)}
            : Time{rng.uniform_int(1, std::max<std::int64_t>(
                                          2, (work + work / 2).count()))};
    const SlotProfile got = minimal_slot_profile(
        maps, reduces, now, now + budget, max_map, max_reduce, bound);
    const SlotProfile want = reference::full_sweep_slot_profile(
        maps, reduces, now, now + budget, max_map, max_reduce, bound);
    ASSERT_EQ(got.feasible, want.feasible) << "case " << i;
    ASSERT_EQ(got.map_slots, want.map_slots) << "case " << i;
    ASSERT_EQ(got.reduce_slots, want.reduce_slots) << "case " << i;
    feasible += got.feasible ? 1 : 0;
    two_phase_feasible +=
        got.feasible && got.map_slots > 1 && got.reduce_slots > 1 ? 1 : 0;
  }
  // The sample must exercise both outcomes and real two-phase trade-offs.
  EXPECT_GT(feasible, 2000);
  EXPECT_GT(two_phase_feasible, 1000);
  EXPECT_LT(feasible, 19000);
}

/// Phase statistics at production magnitudes and beyond: 1-10,000 tasks
/// of up to 1e7 ticks. The triple is drawn directly, log-uniform in count
/// and longest task, so that the extremes (all tasks equal, one long task
/// among unit ones) come up often.
PhaseStats random_large_phase(RandomStream& rng) {
  const auto log_uniform = [&](double top) {
    return static_cast<std::int64_t>(
        std::pow(10.0, rng.uniform_real(0.0, top)));
  };
  PhaseStats stats;
  stats.count = std::min<std::int64_t>(log_uniform(4.0), 10000);
  stats.max = Time{std::min<std::int64_t>(log_uniform(7.0), 10000000)};
  const std::int64_t least = stats.max.count() + (stats.count - 1);
  const std::int64_t most = stats.max.count() * stats.count;
  const double pick = rng.uniform_real(0.0, 1.0);
  stats.sum = Time{pick < 0.1   ? least
                   : pick < 0.2 ? most
                                : rng.uniform_int(least, most)};
  return stats;
}

/// A slot cap of 1-4096, log-uniform.
int random_large_cap(RandomStream& rng) {
  return static_cast<int>(std::pow(2.0, rng.uniform_real(0.0, 12.0)));
}

TEST(AriaEstimate, MatchesDefinitionAtProductionMagnitudes) {
  RandomStream rng(20261019, 1);
  for (int i = 0; i < 20000; ++i) {
    const PhaseStats stats = random_large_phase(rng);
    const AriaBound bound = random_bound(rng);
    const int slots = random_large_cap(rng);
    ASSERT_EQ(aria_completion_estimate(stats, slots, bound),
              reference::aria_estimate(stats, slots, bound))
        << "case " << i;
  }
}

// A search that finds no fitting count ends one past the cap; at a cap of
// INT_MAX that must not overflow.
TEST(MinSlotsForEstimate, SlotCapOfIntMax) {
  constexpr int kCap = std::numeric_limits<int>::max();
  const std::vector<Time> durs{Time{10}, Time{20}, Time{30}};
  EXPECT_EQ(min_slots_for_estimate(durs, Time{29}, kCap, AriaBound::kUpper), 0);
  EXPECT_EQ(min_slots_for_estimate(durs, Time{44}, kCap, AriaBound::kUpper), 3);
  // kAverage: (ceil(60/n) + ceil(40/n) + 30) / 2 never drops below 16.
  EXPECT_EQ(min_slots_for_estimate(durs, Time{15}, kCap, AriaBound::kAverage),
            0);
  EXPECT_EQ(min_slots_for_estimate(durs, Time{16}, kCap, AriaBound::kAverage),
            40);
  const SlotProfile p =
      minimal_slot_profile(durs, durs, Time{0}, Time{31}, kCap, kCap,
                           AriaBound::kAverage);
  EXPECT_FALSE(p.feasible);
  const SlotProfile q =
      minimal_slot_profile(durs, durs, Time{0}, Time{120}, kCap, kCap);
  EXPECT_TRUE(q.feasible);
  EXPECT_EQ(q.map_slots + q.reduce_slots, 2);
}

// The search starts at the closed-form inverse of the estimate; a linear
// scan of the slot counts must agree on every budget: below, at and just
// around the estimate at some slot count, non-positive and generous.
TEST(MinSlotsForEstimate, MatchesLinearScan) {
  RandomStream rng(20261019, 2);
  int found = 0;
  for (int i = 0; i < 20000; ++i) {
    const bool large = rng.bernoulli(0.5);
    const PhaseStats stats =
        large ? random_large_phase(rng) : random_phase(rng);
    const AriaBound bound = random_bound(rng);
    const int cap = large ? random_large_cap(rng)
                          : static_cast<int>(rng.uniform_int(1, 128));
    const int at = static_cast<int>(rng.uniform_int(1, cap));
    const double pick = rng.uniform_real(0.0, 1.0);
    const Time budget =
        pick < 0.05   ? Time{rng.uniform_int(-100, 0)}
        : pick < 0.10 ? stats.sum + Time{rng.uniform_int(0, 100)}
                      : reference::aria_estimate(stats, at, bound) +
                            Time{rng.uniform_int(-2, 2)};
    const int got = min_slots_for_estimate(stats, budget, cap, bound);
    ASSERT_EQ(got, reference::min_slots_by_scan(stats, budget, cap, bound))
        << "case " << i;
    found += got > 0 ? 1 : 0;
  }
  EXPECT_GT(found, 10000);
  EXPECT_LT(found, 19000);
}

// Facebook phases reach 4800 tasks. Here the phases have up to 10,000
// tasks of up to 1e7 ticks, the caps reach 4096 slots, and the budget is
// the two estimates at a random slot pair, give or take a few ticks, so
// the minimum sits at large slot counts.
TEST(MinimalSlotProfile, MatchesFullSweepAtProductionMagnitudes) {
  RandomStream rng(20261019, 3);
  int two_phase_large = 0;
  for (int i = 0; i < 4000; ++i) {
    const PhaseStats maps = random_large_phase(rng);
    const PhaseStats reduces = random_large_phase(rng);
    const AriaBound bound = random_bound(rng);
    const int max_map = random_large_cap(rng);
    const int max_reduce = random_large_cap(rng);
    const int at_map = static_cast<int>(rng.uniform_int(1, max_map));
    const int at_reduce = static_cast<int>(rng.uniform_int(1, max_reduce));
    const Time budget = reference::aria_estimate(maps, at_map, bound) +
                        reference::aria_estimate(reduces, at_reduce, bound) +
                        Time{rng.uniform_int(-3, 3)};
    const Time now{rng.uniform_int(0, 1000000)};
    const SlotProfile got = minimal_slot_profile(
        maps, reduces, now, now + budget, max_map, max_reduce, bound);
    const SlotProfile want = reference::full_sweep_slot_profile(
        maps, reduces, now, now + budget, max_map, max_reduce, bound);
    ASSERT_EQ(got.feasible, want.feasible) << "case " << i;
    ASSERT_EQ(got.map_slots, want.map_slots) << "case " << i;
    ASSERT_EQ(got.reduce_slots, want.reduce_slots) << "case " << i;
    two_phase_large +=
        got.feasible && got.map_slots > 16 && got.reduce_slots > 16 ? 1 : 0;
  }
  EXPECT_GT(two_phase_large, 400);
}

}  // namespace
}  // namespace mrcp::baseline
