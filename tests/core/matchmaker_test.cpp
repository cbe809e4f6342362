#include "core/matchmaker.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "cp/profile.h"
#include "reference_matchmake.h"

namespace mrcp {
namespace {

/// matchmake() with a fresh sort buffer.
std::vector<ResourceId> matchmake(const Cluster& cluster,
                                  const std::vector<MatchItem>& items) {
  std::vector<KeyedIndex> scratch;
  return mrcp::matchmake(cluster, items, scratch);
}

TEST(Matchmaker, PaperMinGapExample) {
  // §V.D: r1 busy until 10, r2 busy until 8; a task needing [11, 15)
  // goes to r1 (gap 1 < gap 3).
  Cluster cluster = Cluster::homogeneous(2, 1, 1);
  std::vector<MatchItem> items = {
      {TaskType::kMap, Time{2}, Time{10}, false, kNoResource},   // ends 10 (claims r0)
      {TaskType::kMap, Time{5}, Time{8}, false, kNoResource},    // ends 8 (claims r1)
      {TaskType::kMap, Time{11}, Time{15}, false, kNoResource},  // the §V.D task
  };
  const std::vector<ResourceId> assigned = matchmake(cluster, items);
  EXPECT_NE(assigned[0], assigned[1]);
  EXPECT_EQ(assigned[2], assigned[0]);  // joins the later-ending slot
}

TEST(Matchmaker, ParallelTasksSpreadAcrossSlots) {
  Cluster cluster = Cluster::homogeneous(3, 1, 1);
  std::vector<MatchItem> items = {
      {TaskType::kMap, Time{0}, Time{10}, false, kNoResource},
      {TaskType::kMap, Time{0}, Time{10}, false, kNoResource},
      {TaskType::kMap, Time{0}, Time{10}, false, kNoResource},
  };
  const std::vector<ResourceId> assigned = matchmake(cluster, items);
  EXPECT_NE(assigned[0], assigned[1]);
  EXPECT_NE(assigned[1], assigned[2]);
  EXPECT_NE(assigned[0], assigned[2]);
}

TEST(Matchmaker, ReusesSlotAfterCompletion) {
  Cluster cluster = Cluster::homogeneous(1, 2, 1);
  std::vector<MatchItem> items = {
      {TaskType::kMap, Time{0}, Time{10}, false, kNoResource},
      {TaskType::kMap, Time{10}, Time{20}, false, kNoResource},
      {TaskType::kMap, Time{5}, Time{9}, false, kNoResource},
  };
  const std::vector<ResourceId> assigned = matchmake(cluster, items);
  for (ResourceId r : assigned) EXPECT_EQ(r, 0);
}

TEST(Matchmaker, PinnedTaskForcedToItsResource) {
  Cluster cluster = Cluster::homogeneous(2, 1, 1);
  std::vector<MatchItem> items = {
      {TaskType::kMap, Time{0}, Time{50}, true, 1},  // running on resource 1
      {TaskType::kMap, Time{10}, Time{20}, false, kNoResource},
  };
  const std::vector<ResourceId> assigned = matchmake(cluster, items);
  EXPECT_EQ(assigned[0], 1);
  EXPECT_EQ(assigned[1], 0);  // only free slot
}

TEST(Matchmaker, MapAndReducePoolsIndependent) {
  Cluster cluster = Cluster::homogeneous(1, 1, 1);
  std::vector<MatchItem> items = {
      {TaskType::kMap, Time{0}, Time{10}, false, kNoResource},
      {TaskType::kReduce, Time{0}, Time{10}, false, kNoResource},
  };
  const std::vector<ResourceId> assigned = matchmake(cluster, items);
  EXPECT_EQ(assigned[0], 0);
  EXPECT_EQ(assigned[1], 0);
}

// Property: any interval set respecting the combined capacity can be
// matchmade, and the per-resource capacity is then respected.
class MatchmakerRandomProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(MatchmakerRandomProperty, ValidAssignmentForFeasibleSchedules) {
  RandomStream rng(GetParam(), 0);
  const int m = static_cast<int>(rng.uniform_int(2, 5));
  const int cap = static_cast<int>(rng.uniform_int(1, 3));
  Cluster cluster = Cluster::homogeneous(m, cap, cap);

  // Build a feasible combined schedule by greedy placement against the
  // combined profiles (mirrors the solver's behavior).
  cp::Profile map_profile(m * cap);
  cp::Profile reduce_profile(m * cap);
  std::vector<MatchItem> items;
  for (int i = 0; i < 60; ++i) {
    const TaskType type = rng.bernoulli(0.5) ? TaskType::kMap : TaskType::kReduce;
    cp::Profile& prof = type == TaskType::kMap ? map_profile : reduce_profile;
    const Time est{rng.uniform_int(0, 300)};
    const Time dur{rng.uniform_int(1, 60)};
    const Time start = prof.earliest_feasible(est, dur, 1);
    prof.add(start, dur, 1);
    items.push_back(MatchItem{type, start, start + dur, false, kNoResource});
  }

  const std::vector<ResourceId> assigned = matchmake(cluster, items);

  // Sweep per (resource, type).
  std::map<std::pair<ResourceId, int>, std::map<Time, int>> deltas;
  for (std::size_t i = 0; i < items.size(); ++i) {
    ASSERT_GE(assigned[i], 0);
    ASSERT_LT(assigned[i], m);
    deltas[{assigned[i], static_cast<int>(items[i].type)}][items[i].start] += 1;
    deltas[{assigned[i], static_cast<int>(items[i].type)}][items[i].end] -= 1;
  }
  for (const auto& [key, delta] : deltas) {
    int usage = 0;
    for (const auto& [t, d] : delta) {
      usage += d;
      ASSERT_LE(usage, cap) << "resource " << key.first << " over capacity";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchmakerRandomProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// Differential: the one-sweep matchmake() against the scan matchmaker it
// replaced (reference_matchmake.h), on random feasible combined
// schedules. Resources carry 1-4 slots per phase; a wide cluster has more
// than 64 slots per phase. Running (pinned) items start first, at most a
// resource's capacity of them per resource. Times sit on a 10-tick grid,
// so starts tie, ends tie and ends meet later starts; a far instance sits
// just below kMaxTime / 2.
struct Instance {
  Cluster cluster;
  std::vector<MatchItem> items;
};

Instance random_instance(std::uint64_t seed, bool wide, bool far) {
  RandomStream rng(seed, 0x3A7C);
  Instance inst;
  const int m = static_cast<int>(wide ? rng.uniform_int(66, 90)
                                      : rng.uniform_int(1, 12));
  for (int r = 0; r < m; ++r) {
    inst.cluster.add_resource(static_cast<int>(rng.uniform_int(1, 4)),
                              static_cast<int>(rng.uniform_int(1, 4)));
  }
  const Time base{far ? kMaxTime.count() / 2 - rng.uniform_int(0, 1000)
                      : 10 * rng.uniform_int(0, 2)};
  const auto tick = [&](std::int64_t lo, std::int64_t hi) {
    return Time{10 * rng.uniform_int(lo, hi)};
  };
  cp::Profile profiles[2] = {cp::Profile(inst.cluster.total_map_slots()),
                             cp::Profile(inst.cluster.total_reduce_slots())};
  for (const Resource& r : inst.cluster.resources()) {
    for (const TaskType type : {TaskType::kMap, TaskType::kReduce}) {
      const auto running = rng.uniform_int(0, r.capacity(type));
      for (std::int64_t k = 0; k < running; ++k) {
        const Time start = base + tick(0, 3);
        const Time dur = tick(1, 8);
        profiles[static_cast<int>(type)].add(start, dur, 1);
        inst.items.push_back(MatchItem{type, start, start + dur, true, r.id});
      }
    }
  }
  const auto n = rng.uniform_int(0, 500);
  const std::int64_t spread = rng.uniform_int(1, 80);
  for (std::int64_t i = 0; i < n; ++i) {
    const TaskType type =
        rng.bernoulli(0.6) ? TaskType::kMap : TaskType::kReduce;
    cp::Profile& prof = profiles[static_cast<int>(type)];
    const Time est = base + tick(3, 3 + spread);
    // Mostly on the grid; a few off it, so ends also fall between starts.
    const Time dur =
        tick(1, 8) + Time{rng.bernoulli(0.1) ? rng.uniform_int(1, 9) : 0};
    const Time start = prof.earliest_feasible(est, dur, 1);
    prof.add(start, dur, 1);
    inst.items.push_back(
        MatchItem{type, start, start + dur, false, kNoResource});
  }
  rng.shuffle(inst.items.begin(), inst.items.end());
  return inst;
}

class MatchmakerDifferential
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool, bool>> {};

TEST_P(MatchmakerDifferential, SweepEqualsScanReference) {
  const auto [seed, wide, far] = GetParam();
  // One sort buffer for all four instances, as the RM keeps one across
  // replans: a later call finds it longer than its items and dirty.
  std::vector<KeyedIndex> scratch;
  for (std::uint64_t k = 0; k < 4; ++k) {
    const Instance inst = random_instance(seed * 8 + k, wide, far);
    if (wide) {
      ASSERT_GT(inst.cluster.total_map_slots(), 64);
      ASSERT_GT(inst.cluster.total_reduce_slots(), 64);
    }
    ASSERT_EQ(mrcp::matchmake(inst.cluster, inst.items, scratch),
              reference::scan_matchmake(inst.cluster, inst.items))
        << "instance " << k << " of seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, MatchmakerDifferential,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 9),
                       ::testing::Bool(), ::testing::Bool()));

TEST(MatchmakerDifferential, GeneratorCoversTiesPinsAndMeetings) {
  // The differential cases above are only as good as what they contain:
  // running items, tied starts, tied ends and ends meeting later starts.
  int pinned = 0;
  int tied_starts = 0;
  int tied_ends = 0;
  int meetings = 0;
  for (std::uint64_t seed = 8; seed < 16; ++seed) {
    const Instance inst = random_instance(seed, false, false);
    std::map<Time, int> starts;
    std::map<Time, int> ends;
    for (const MatchItem& item : inst.items) {
      pinned += item.pinned ? 1 : 0;
      ++starts[item.start];
      ++ends[item.end];
    }
    for (const auto& [t, c] : starts) {
      tied_starts += c - 1;
      meetings += ends.count(t) != 0 ? 1 : 0;
    }
    for (const auto& [t, c] : ends) tied_ends += c - 1;
  }
  EXPECT_GT(pinned, 20);
  EXPECT_GT(tied_starts, 100);
  EXPECT_GT(tied_ends, 100);
  EXPECT_GT(meetings, 100);
}

TEST(MatchmakerDifferential, SaturatedStaircase) {
  // Every slot busy back to back with staggered ends — the timetable
  // staircase of a loaded cluster, where almost every start meets an end.
  Cluster cluster = Cluster::homogeneous(70, 1, 1);
  std::vector<MatchItem> items;
  for (int s = 0; s < 70; ++s) {
    Time t{s};
    for (int k = 0; k < 20; ++k) {
      const Time dur{100 + (s * 7 + k * 13) % 50};
      items.push_back(
          MatchItem{TaskType::kMap, t, t + dur, false, kNoResource});
      t += dur;
    }
  }
  EXPECT_EQ(matchmake(cluster, items),
            reference::scan_matchmake(cluster, items));
}

TEST(Regrouping, PaperExample) {
  // §V.D: 100 map + 100 reduce slots, nm=50, nr=30 -> 50 resources with
  // c^mp = 2; 20 resources with c^rd = 3 and 10 with c^rd = 4.
  const Cluster c = compute_regrouping(100, 100, 50, 30);
  ASSERT_EQ(c.size(), 50);
  EXPECT_EQ(c.total_map_slots(), 100);
  EXPECT_EQ(c.total_reduce_slots(), 100);
  int with_3 = 0;
  int with_4 = 0;
  int with_0 = 0;
  for (const Resource& r : c.resources()) {
    EXPECT_EQ(r.map_capacity, 2);
    if (r.reduce_capacity == 3) ++with_3;
    if (r.reduce_capacity == 4) ++with_4;
    if (r.reduce_capacity == 0) ++with_0;
  }
  EXPECT_EQ(with_3, 20);
  EXPECT_EQ(with_4, 10);
  EXPECT_EQ(with_0, 20);  // the other 20 resources carry no reduce slots
}

TEST(Regrouping, EvenSplit) {
  const Cluster c = compute_regrouping(100, 100, 50, 50);
  ASSERT_EQ(c.size(), 50);
  for (const Resource& r : c.resources()) {
    EXPECT_EQ(r.map_capacity, 2);
    EXPECT_EQ(r.reduce_capacity, 2);
  }
}

TEST(Regrouping, MapOnly) {
  const Cluster c = compute_regrouping(10, 0, 5, 0);
  ASSERT_EQ(c.size(), 5);
  EXPECT_EQ(c.total_map_slots(), 10);
  EXPECT_EQ(c.total_reduce_slots(), 0);
}

TEST(Regrouping, SlotTotalsPreserved) {
  const Cluster c = compute_regrouping(17, 23, 4, 6);
  EXPECT_EQ(c.size(), 6);
  EXPECT_EQ(c.total_map_slots(), 17);
  EXPECT_EQ(c.total_reduce_slots(), 23);
}

}  // namespace
}  // namespace mrcp
