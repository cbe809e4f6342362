// Differential test of the feasibility sweeps inside Profile (the
// window scan and next_ok, exercised through earliest_feasible and
// fits) against the always-compiled O(n^2) audit::ReferenceProfile
// oracle. The file keeps the cases written for the per-64-event block
// index the timeline once carried: timelines several times longer than
// 64 events, queries at, just before and just after every change point,
// long capacity-saturated plateaus with sparse holes, and removal storms
// that shrink the timeline back to empty.
#include "cp/profile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "cp/audit.h"

namespace mrcp::cp {
namespace {

/// Compare fast vs oracle on earliest_feasible / fits / usage_at at one
/// query point, for a spread of durations and demands.
void check_queries_at(const Profile& fast, const audit::ReferenceProfile& ref,
                      Time est) {
  for (const Time dur : {Time{1}, Time{7}, Time{100}, Time{5000}}) {
    for (int demand = 1; demand <= ref.capacity(); demand += 3) {
      const Time want = ref.earliest_feasible(est, dur, demand);
      const Time got = fast.earliest_feasible(est, dur, demand);
      ASSERT_EQ(want, got) << "earliest_feasible(est=" << est
                           << ", dur=" << dur << ", demand=" << demand << ")";
      ASSERT_EQ(ref.fits(est, dur, demand), fast.fits(est, dur, demand))
          << "fits(start=" << est << ", dur=" << dur << ", demand=" << demand
          << ")";
    }
  }
  ASSERT_EQ(ref.usage_at(est), fast.usage_at(est)) << "usage_at(" << est << ")";
}

/// Query at, just before, and just after every stored change point —
/// whatever block an event lands in, some query enters that block
/// mid-way and some exactly at its boundary.
void check_around_change_points(const Profile& fast,
                                const audit::ReferenceProfile& ref) {
  for (const Time t : ref.change_points()) {
    check_queries_at(fast, ref, std::max(Time{0}, t - Time{1}));
    check_queries_at(fast, ref, t);
    check_queries_at(fast, ref, t + Time{1});
  }
}

TEST(ProfileBlockSweep, SaturatedPlateausWithSparseHoles) {
  // Full-capacity plateaus hundreds of events long: next_ok must find
  // the sparse holes, and the window scan must stop at the first
  // saturated entry after each hole.
  constexpr int kCapacity = 4;
  Profile fast(kCapacity);
  audit::ReferenceProfile ref(kCapacity);
  // 400 adjacent near-saturated segments with alternating levels (equal
  // neighbouring levels would merge into one change point), a deep hole
  // every 37 segments -> ~400 change points (> 6 blocks).
  Time t;
  for (int seg = 0; seg < 400; ++seg) {
    const Time dur{5 + (seg % 3)};
    const int demand = (seg % 37 == 0) ? 1
                       : (seg % 2 != 0) ? kCapacity
                                        : kCapacity - 1;
    fast.add(t, dur, demand);
    ref.add(t, dur, demand);
    t += dur;
  }
  ASSERT_GT(fast.num_events(), 64u * 3u);
  check_around_change_points(fast, ref);
  // Far-right queries past the support must return est itself.
  check_queries_at(fast, ref, t + Time{12345});
}

TEST(ProfileBlockSweep, RandomDifferentialLongTimeline) {
  constexpr int kCapacity = 6;
  RandomStream rng(17, 0xB10C);
  Profile fast(kCapacity);
  audit::ReferenceProfile ref(kCapacity);
  std::vector<std::tuple<Time, Time, int>> live;
  for (int step = 0; step < 600; ++step) {
    const Time start{rng.uniform_int(0, 20000)};
    const Time dur{rng.uniform_int(1, 400)};
    const int demand = static_cast<int>(rng.uniform_int(1, kCapacity));
    if (ref.fits(start, dur, demand)) {
      fast.add(start, dur, demand);
      ref.add(start, dur, demand);
      live.emplace_back(start, dur, demand);
    }
    if (step % 50 == 49) {
      // Interleaved queries at random and boundary-adjacent points.
      for (int q = 0; q < 20; ++q) {
        check_queries_at(fast, ref, Time{rng.uniform_int(0, 25000)});
      }
    }
  }
  ASSERT_GT(fast.num_events(), 64u * 3u);
  check_around_change_points(fast, ref);
}

TEST(ProfileBlockSweep, RemovalStormKeepsSweepsExact) {
  constexpr int kCapacity = 5;
  RandomStream rng(23, 0xDEAD);
  Profile fast(kCapacity);
  audit::ReferenceProfile ref(kCapacity);
  std::vector<std::tuple<Time, Time, int>> live;
  for (int i = 0; i < 500; ++i) {
    const Time start{rng.uniform_int(0, 30000)};
    const Time dur{rng.uniform_int(1, 300)};
    const int demand = static_cast<int>(rng.uniform_int(1, kCapacity));
    if (!ref.fits(start, dur, demand)) continue;
    fast.add(start, dur, demand);
    ref.add(start, dur, demand);
    live.emplace_back(start, dur, demand);
  }
  ASSERT_GT(fast.num_events(), 64u * 3u);
  // Remove in shuffled order, re-checking the sweeps as the timeline
  // (and its block index) shrinks through every block-count boundary.
  for (std::size_t i = live.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(live[j], live[i - 1]);
    const auto [start, dur, demand] = live[i - 1];
    fast.remove(start, dur, demand);
    ref.remove(start, dur, demand);
    live.pop_back();
    if (i % 25 == 0) {
      for (int q = 0; q < 10; ++q) {
        check_queries_at(fast, ref, Time{rng.uniform_int(0, 35000)});
      }
    }
  }
  check_around_change_points(fast, ref);
}

}  // namespace
}  // namespace mrcp::cp
