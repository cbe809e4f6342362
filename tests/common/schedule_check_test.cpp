#include "common/schedule_check.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"

namespace mrcp {
namespace {

ScheduleRow row(int resource, SlotDim dim, std::int64_t start,
                std::int64_t end, int demand, int net_demand = 0) {
  ScheduleRow r;
  r.job = 0;
  r.task = 0;
  r.resource = resource;
  r.dim = dim;
  r.start = Time{start};
  r.end = Time{end};
  r.demand = demand;
  r.net_demand = net_demand;
  r.order = 0;  // capacity only
  return r;
}

TEST(CheckSchedule, ReportsFirstSeriesInResourceThenDimOrder) {
  // Violations on four series at once. The report names the lowest
  // resource first, then map / reduce / net, then the earliest instant
  // of that series, with its summed usage; deltas at one instant sum
  // before the compare, so back-to-back intervals fit.
  const std::vector<ResourceCapacity> cap = {{2, 1, 2}, {1, 1, 1}};
  std::vector<ScheduleRow> rows = {
      // resource 1 map: 2 > 1 from t=5 (the earliest violation overall)
      row(1, SlotDim::kMap, 5, 30, 1), row(1, SlotDim::kMap, 5, 9, 1),
      // resource 0 net: 3 > 2 at t=10, rows on both slot dims
      row(0, SlotDim::kMap, 10, 40, 1, 2),
      row(0, SlotDim::kReduce, 10, 12, 0, 1),
      // resource 0 reduce: 2 > 1 at t=80, then 3 > 1 at t=85
      row(0, SlotDim::kReduce, 80, 90, 1), row(0, SlotDim::kReduce, 80, 90, 1),
      row(0, SlotDim::kReduce, 85, 90, 1),
      // resource 0 map is fine: 2 of 2 at t=10..15
      row(0, SlotDim::kMap, 12, 15, 1)};
  EXPECT_EQ(check_schedule(rows, cap, {}),
            "resource 0 reduce capacity exceeded at t=80 (2 > 1)");
  rows.erase(rows.begin() + 4, rows.begin() + 7);
  EXPECT_EQ(check_schedule(rows, cap, {}),
            "resource 0 net capacity exceeded at t=10 (3 > 2)");
  rows[3].net_demand = 0;
  EXPECT_EQ(check_schedule(rows, cap, {}),
            "resource 1 map capacity exceeded at t=5 (2 > 1)");
  rows[1].start = Time{30};  // now back to back with rows[0]
  rows[1].end = Time{40};
  EXPECT_EQ(check_schedule(rows, cap, {}), "");
}

/// The sweep as a single vector of every delta sorted by (resource,
/// dim, time) — the obvious formulation the per-series sweep must
/// agree with, message for message.
std::string one_vector_sweep(const std::vector<ScheduleRow>& rows,
                             const std::vector<ResourceCapacity>& capacity) {
  const bool links = std::any_of(
      capacity.begin(), capacity.end(),
      [](const ResourceCapacity& c) { return c.net > 0; });
  std::vector<std::tuple<int, int, std::int64_t, int>> deltas;
  for (const ScheduleRow& r : rows) {
    const int dim = static_cast<int>(r.dim);
    deltas.emplace_back(r.resource, dim, r.start.count(), r.demand);
    deltas.emplace_back(r.resource, dim, r.end.count(), -r.demand);
    if (links && r.net_demand > 0) {
      deltas.emplace_back(r.resource, 2, r.start.count(), r.net_demand);
      deltas.emplace_back(r.resource, 2, r.end.count(), -r.net_demand);
    }
  }
  std::sort(deltas.begin(), deltas.end());
  int usage = 0;
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    const auto [resource, dim, at, change] = deltas[i];
    usage += change;
    if (i + 1 < deltas.size() && std::get<0>(deltas[i + 1]) == resource &&
        std::get<1>(deltas[i + 1]) == dim && std::get<2>(deltas[i + 1]) == at) {
      continue;
    }
    const ResourceCapacity& c = capacity[static_cast<std::size_t>(resource)];
    const int cap = dim == 0 ? c.map : dim == 1 ? c.reduce : c.net;
    if (usage > cap) {
      const char* name = dim == 0 ? "map" : dim == 1 ? "reduce" : "net";
      return "resource " + std::to_string(resource) + " " + name +
             " capacity exceeded at t=" + std::to_string(at) + " (" +
             std::to_string(usage) + " > " + std::to_string(cap) + ")";
    }
  }
  return "";
}

/// A random row set of one of two shapes. Small: up to 24 rows on up to
/// 4 resources of capacity 1-3. Wide: 150-250 rows on one resource of
/// capacity 64, the shape of a Facebook run's series. Both draw empty
/// intervals (end == start), demand 0, net demand and starts on a coarse
/// grid, so that many rows share an instant and ends meet starts.
struct RandomSchedule {
  std::vector<ResourceCapacity> cap;
  std::vector<ScheduleRow> rows;
};

RandomSchedule random_schedule(RandomStream& rng, bool wide) {
  RandomSchedule out;
  out.cap.resize(wide ? 1 : static_cast<std::size_t>(rng.uniform_int(1, 4)));
  const bool links = rng.bernoulli(0.5);
  for (ResourceCapacity& c : out.cap) {
    c.map = wide ? 64 : static_cast<int>(rng.uniform_int(1, 3));
    c.reduce = wide ? 64 : static_cast<int>(rng.uniform_int(1, 3));
    c.net = links ? static_cast<int>(rng.uniform_int(0, wide ? 128 : 3)) : 0;
  }
  const std::int64_t rows = wide ? rng.uniform_int(150, 250)
                                 : rng.uniform_int(0, 24);
  const std::int64_t horizon = wide ? 25 : 40;
  const std::int64_t longest = wide ? 40 : 15;
  const std::int64_t grid = rng.bernoulli(0.5) ? 5 : 1;
  for (std::int64_t i = 0; i < rows; ++i) {
    const std::int64_t start = rng.uniform_int(0, horizon / grid) * grid;
    const std::int64_t length =
        rng.bernoulli(0.15) ? 0 : rng.uniform_int(1, longest / grid) * grid;
    out.rows.push_back(row(
        static_cast<int>(rng.uniform_int(
            0, static_cast<std::int64_t>(out.cap.size()) - 1)),
        rng.bernoulli(0.5) ? SlotDim::kMap : SlotDim::kReduce, start,
        start + length, static_cast<int>(rng.uniform_int(0, 2)),
        static_cast<int>(rng.uniform_int(0, 2))));
  }
  return out;
}

TEST(CheckSchedule, PerSeriesSweepMatchesOneVectorSweep) {
  int rejected[2] = {0, 0};
  int empty_over_capacity = 0;
  for (std::uint64_t seed = 1; seed <= 800; ++seed) {
    RandomStream rng(seed, 0x5C);
    const bool wide = seed % 2 == 0;
    RandomSchedule s = random_schedule(rng, wide);
    const std::string want = one_vector_sweep(s.rows, s.cap);
    EXPECT_EQ(check_schedule(s.rows, s.cap, {}), want) << "seed " << seed;
    rejected[wide ? 1 : 0] += want.empty() ? 0 : 1;
    // Would the verdict change if empty intervals held their demand?
    for (ScheduleRow& r : s.rows) {
      if (r.end == r.start) r.end = r.start + Time{1};
    }
    if (one_vector_sweep(s.rows, s.cap) != want) ++empty_over_capacity;
  }
  // Both verdicts on both shapes, and empty intervals that matter.
  EXPECT_GE(rejected[0], 100);
  EXPECT_LE(rejected[0], 380);
  EXPECT_GE(rejected[1], 50);
  EXPECT_LE(rejected[1], 350);
  EXPECT_GE(empty_over_capacity, 20);
}

}  // namespace
}  // namespace mrcp
