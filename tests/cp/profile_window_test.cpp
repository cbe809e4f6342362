// Differential test of Profile's window scan against the always-compiled
// O(n^2) audit::ReferenceProfile oracle, at the timeline sizes real runs
// have (50-300 change points). earliest_feasible only looks at the
// entries inside [candidate, candidate + duration), so the cases aim at
// the edges of that window: windows that end exactly at a change point
// (the entry there must not count) or one tick past it (it must), and
// candidates that have to jump past several overloaded entries before a
// window fits. Demands range over [1, capacity] and removes are mixed
// into the edits, so the timeline is re-canonicalized on both sides.
#include "cp/profile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "cp/audit.h"

namespace mrcp::cp {
namespace {

using Interval = std::tuple<Time, Time, int>;

/// The oracle's usage level at each of its change points.
struct Levels {
  std::vector<Time> points;
  std::vector<int> usage;
};

Levels levels_of(const audit::ReferenceProfile& ref) {
  Levels levels;
  levels.points = ref.change_points();
  for (const Time t : levels.points) levels.usage.push_back(ref.usage_at(t));
  return levels;
}

/// Number of maximal overloaded stretches (usage > capacity - demand)
/// that start in [est, answer): how many times the search had to jump.
int overloaded_stretches_before(const audit::ReferenceProfile& ref,
                                const Levels& levels, Time est, Time answer,
                                int demand) {
  const int limit = ref.capacity() - demand;
  bool in_stretch = ref.usage_at(est) > limit;
  int stretches = in_stretch ? 1 : 0;
  for (std::size_t k = 0; k < levels.points.size(); ++k) {
    const Time t = levels.points[k];
    if (t <= est || t >= answer) continue;
    const bool over = levels.usage[k] > limit;
    if (over && !in_stretch) ++stretches;
    in_stretch = over;
  }
  return stretches;
}

/// Compares earliest_feasible and fits for one (est, duration, demand).
void expect_same(const Profile& fast, const audit::ReferenceProfile& ref,
                 Time est, Time duration, int demand) {
  ASSERT_EQ(ref.earliest_feasible(est, duration, demand),
            fast.earliest_feasible(est, duration, demand))
      << "earliest_feasible(est=" << est << ", dur=" << duration
      << ", demand=" << demand << ") on " << fast.to_string();
  ASSERT_EQ(ref.fits(est, duration, demand), fast.fits(est, duration, demand))
      << "fits(start=" << est << ", dur=" << duration << ", demand=" << demand
      << ") on " << fast.to_string();
}

/// Random edits until the timeline holds at least `min_events` change
/// points: adds of random demand where the oracle says they fit, and
/// every fourth step a remove of a random live interval.
void grow(Profile& fast, audit::ReferenceProfile& ref,
          std::vector<Interval>& live, RandomStream& rng,
          std::size_t min_events, std::int64_t horizon) {
  const int cap = ref.capacity();
  for (int step = 0; fast.num_events() < min_events; ++step) {
    ASSERT_LT(step, 100000) << "profile never reached " << min_events
                            << " events";
    if (step % 4 == 3 && !live.empty()) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live.size()) - 1));
      const auto [start, dur, demand] = live[j];
      fast.remove(start, dur, demand);
      ref.remove(start, dur, demand);
      live[j] = live.back();
      live.pop_back();
      continue;
    }
    const Time start{rng.uniform_int(0, horizon)};
    const Time dur{rng.uniform_int(1, horizon / 150)};
    const int demand = static_cast<int>(rng.uniform_int(1, cap));
    if (!ref.fits(start, dur, demand)) continue;
    fast.add(start, dur, demand);
    ref.add(start, dur, demand);
    live.emplace_back(start, dur, demand);
  }
}

TEST(ProfileWindow, WindowsEndingAtChangePointsOnRealRunSizes) {
  // Per seed: a random capacity, a profile of 50-300 events, and for
  // every change point c a handful of starts est < c queried with the
  // window [est, c) (ends exactly at c) and [est, c + 1) (covers c).
  int multi_jumps = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    RandomStream rng(seed, 0xF1A7);
    const int cap = seed % 5 == 0 ? 64 : static_cast<int>(rng.uniform_int(3, 9));
    Profile fast(cap);
    audit::ReferenceProfile ref(cap);
    std::vector<Interval> live;
    const auto target = static_cast<std::size_t>(rng.uniform_int(50, 300));
    grow(fast, ref, live, rng, target,
         40 * static_cast<std::int64_t>(target));
    ASSERT_GE(fast.num_events(), 50u);
    ASSERT_LE(fast.num_events(), 302u);  // one edit adds at most two
    const Levels levels = levels_of(ref);
    const std::vector<Time>& points = levels.points;
    for (std::size_t k = 0; k < points.size(); ++k) {
      const Time c = points[k];
      // Starts: the previous change point, a few points back, and a
      // random time before c.
      std::vector<Time> starts;
      if (k >= 1) starts.push_back(points[k - 1]);
      if (k >= 4) starts.push_back(points[k - 4]);
      if (c > Time{0}) starts.push_back(Time{rng.uniform_int(0, c.count() - 1)});
      for (const Time est : starts) {
        const int mid = static_cast<int>(rng.uniform_int(2, cap - 1));
        for (const int demand : {1, mid, cap}) {
          expect_same(fast, ref, est, c - est, demand);
          expect_same(fast, ref, est, c - est + Time{1}, demand);
          const Time got = fast.earliest_feasible(est, c - est, demand);
          if (overloaded_stretches_before(ref, levels, est, got, demand) >=
              3) {
            ++multi_jumps;
          }
        }
      }
    }
  }
  // The random profiles must actually exercise multi-stretch jumps.
  EXPECT_GT(multi_jumps, 1000);
}

TEST(ProfileWindow, CandidateJumpsPastOverloadedEntries) {
  // A saturated comb: full-capacity teeth of width 8 separated by holes
  // whose width grows by one per tooth (1, 2, 3, ...). A window of
  // duration d must skip every tooth whose following hole is shorter
  // than d, so the answer moves d - 1 teeth to the right.
  constexpr int kCap = 3;
  Profile fast(kCap);
  audit::ReferenceProfile ref(kCap);
  Time t;
  for (int tooth = 0; tooth < 40; ++tooth) {
    // Split the tooth into two overlapping intervals of demand 2 and 1
    // plus one of demand 1, so removes below can thin it.
    fast.add(t, Time{8}, 2);
    ref.add(t, Time{8}, 2);
    fast.add(t, Time{5}, 1);
    ref.add(t, Time{5}, 1);
    fast.add(t + Time{5}, Time{3}, 1);
    ref.add(t + Time{5}, Time{3}, 1);
    t += Time{8 + tooth + 1};
  }
  for (int dur = 1; dur <= 30; ++dur) {
    for (int demand = 1; demand <= kCap; ++demand) {
      expect_same(fast, ref, Time{0}, Time{dur}, demand);
      expect_same(fast, ref, Time{3}, Time{dur}, demand);
    }
    const Time got = fast.earliest_feasible(Time{0}, Time{dur}, 1);
    EXPECT_GE(overloaded_stretches_before(ref, levels_of(ref), Time{0}, got, 1),
              dur - 1);
  }
  // Thin every other tooth to capacity - 1: demand 1 now fits inside
  // those teeth, demand 2 still has to jump them.
  Time s;
  for (int tooth = 0; tooth < 40; ++tooth) {
    if (tooth % 2 == 0) {
      fast.remove(s, Time{5}, 1);
      ref.remove(s, Time{5}, 1);
    }
    s += Time{8 + tooth + 1};
  }
  for (int dur = 1; dur <= 30; ++dur) {
    for (int demand = 1; demand <= kCap; ++demand) {
      for (const Time est : {Time{0}, Time{2}, Time{17}, Time{100}}) {
        expect_same(fast, ref, est, Time{dur}, demand);
      }
    }
  }
}

TEST(ProfileWindow, RemovesMixedWithMultiSlotDemands) {
  // Interleave edits and queries: after every edit, query at the change
  // points around a random one with demands up to the capacity.
  constexpr int kCap = 6;
  RandomStream rng(77, 0x5107);
  Profile fast(kCap);
  audit::ReferenceProfile ref(kCap);
  std::vector<Interval> live;
  grow(fast, ref, live, rng, 150, 3000);
  for (int round = 0; round < 300; ++round) {
    if (round % 2 == 0 && !live.empty()) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live.size()) - 1));
      const auto [start, dur, demand] = live[j];
      fast.remove(start, dur, demand);
      ref.remove(start, dur, demand);
      live[j] = live.back();
      live.pop_back();
    } else {
      grow(fast, ref, live, rng, fast.num_events() + 1, 3000);
    }
    const Levels levels = levels_of(ref);
    int ref_peak = 0;
    for (const int u : levels.usage) ref_peak = std::max(ref_peak, u);
    ASSERT_EQ(ref_peak, fast.peak_usage());
    const std::vector<Time>& points = levels.points;
    if (points.size() < 2) continue;
    const auto k = static_cast<std::size_t>(rng.uniform_int(
        1, static_cast<std::int64_t>(points.size()) - 1));
    const Time est = points[k - 1];
    for (int demand = 2; demand <= kCap; ++demand) {
      expect_same(fast, ref, est, points[k] - est, demand);
      expect_same(fast, ref, est, points[k] - est + Time{1}, demand);
      expect_same(fast, ref, est + Time{1}, Time{rng.uniform_int(1, 200)},
                  demand);
    }
  }
}

}  // namespace
}  // namespace mrcp::cp
