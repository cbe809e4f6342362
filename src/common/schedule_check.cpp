#include "common/schedule_check.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <tuple>

#include "common/check.h"

namespace mrcp {
namespace {

std::string where(const ScheduleRow& row) {
  return "job " + std::to_string(row.job) + " task " +
         std::to_string(row.task) + ": ";
}

std::string anti_affinity(const std::vector<ScheduleRow>& rows) {
  // (group, resource, row) of every grouped row: after sorting, equal
  // neighbours share a resource.
  std::vector<std::tuple<std::int64_t, int, std::size_t>> held;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].affinity_group >= 0) {
      held.emplace_back(rows[i].affinity_group, rows[i].resource, i);
    }
  }
  std::sort(held.begin(), held.end());
  for (std::size_t k = 1; k < held.size(); ++k) {
    const auto [group, resource, row] = held[k];
    const auto [prev_group, prev_resource, prev_row] = held[k - 1];
    if (group == prev_group && resource == prev_resource) {
      return where(rows[row]) + "shares resource " +
             std::to_string(resource) + " with task " +
             std::to_string(rows[prev_row].task) +
             " of its anti-affinity group";
    }
  }
  return "";
}

std::string barrier(const std::vector<ScheduleRow>& rows) {
  std::vector<Time> maps_end;  // per job; kNoTime = no map row
  for (const ScheduleRow& r : rows) {
    if ((r.order & kBarrier) == 0 || r.dim != SlotDim::kMap) continue;
    const auto job = static_cast<std::size_t>(r.job);
    if (job >= maps_end.size()) maps_end.resize(job + 1, kNoTime);
    maps_end[job] = std::max(maps_end[job], r.end);
  }
  for (const ScheduleRow& r : rows) {
    if ((r.order & kBarrier) == 0 || r.dim != SlotDim::kReduce) continue;
    const auto job = static_cast<std::size_t>(r.job);
    if (job < maps_end.size() && r.start < maps_end[job]) {
      return where(r) + "reduce starts before its job's maps end at t=" +
             std::to_string(maps_end[job].count());
    }
  }
  return "";
}

std::string precedence(const std::vector<ScheduleRow>& rows,
                       const std::vector<RowEdge>& edges) {
  for (const RowEdge& e : edges) {
    const ScheduleRow& after = rows[e.after];
    if ((after.order & kPrecedence) != 0 && after.start < rows[e.before].end) {
      return where(after) + "starts before its workflow predecessor task " +
             std::to_string(rows[e.before].task) + " ends";
    }
  }
  return "";
}

std::string capacity_sweep(const std::vector<ScheduleRow>& rows,
                           const std::vector<ResourceCapacity>& capacity) {
  MRCP_CHECK(rows.size() <= std::numeric_limits<std::uint32_t>::max());
  const bool links_constrained =
      std::any_of(capacity.begin(), capacity.end(),
                  [](const ResourceCapacity& c) { return c.net > 0; });
  // One series per (resource, dim), dim 0 map, 1 reduce, 2 net, laid out
  // in (resource, dim) order: a counting pass sizes each series' bucket
  // of row indices. A row enters a series only where it holds something:
  // an empty interval (a kill at its own start instant) holds nothing.
  constexpr std::size_t kDims = 3;
  auto series = [](int resource, int dim) {
    return static_cast<std::size_t>(resource) * kDims +
           static_cast<std::size_t>(dim);
  };
  auto holds = [](const ScheduleRow& r, int demand) {
    return demand > 0 && r.start < r.end;
  };
  auto has_net = [&](const ScheduleRow& r) {
    return links_constrained && holds(r, r.net_demand);
  };
  std::vector<std::uint32_t> begin(capacity.size() * kDims + 1, 0);
  for (const ScheduleRow& r : rows) {
    if (holds(r, r.demand)) {
      ++begin[series(r.resource, static_cast<int>(r.dim)) + 1];
    }
    if (has_net(r)) ++begin[series(r.resource, 2) + 1];
  }
  for (std::size_t s = 1; s < begin.size(); ++s) begin[s] += begin[s - 1];
  std::vector<std::uint32_t> bucket(begin.back());
  std::vector<std::uint32_t> fill(begin.begin(), begin.end() - 1);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScheduleRow& r = rows[i];
    const auto row = static_cast<std::uint32_t>(i);
    if (holds(r, r.demand)) {
      bucket[fill[series(r.resource, static_cast<int>(r.dim))]++] = row;
    }
    if (has_net(r)) bucket[fill[series(r.resource, 2)]++] = row;
  }

  // Each series is gathered into one reused scratch, sorted by start and
  // swept with a min-heap of the ends still open. At a start instant t
  // the intervals ending by t leave before those starting at t join, so
  // the usage compared is the sum of the intervals covering t. Usage only
  // rises at a start, so the first instant over capacity is one of them.
  struct Held {
    Time start;
    Time end;
    int demand;
  };
  const auto later_end = [](const Held& a, const Held& b) {
    return a.end > b.end;
  };
  std::vector<Held> held;
  std::vector<Held> open;
  for (std::size_t s = 0; s + 1 < begin.size(); ++s) {
    const int dim = static_cast<int>(s % kDims);
    held.clear();
    for (std::uint32_t k = begin[s]; k < begin[s + 1]; ++k) {
      const ScheduleRow& r = rows[bucket[k]];
      held.push_back({r.start, r.end, dim == 2 ? r.net_demand : r.demand});
    }
    std::sort(held.begin(), held.end(),
              [](const Held& a, const Held& b) { return a.start < b.start; });
    const int resource = static_cast<int>(s / kDims);
    const ResourceCapacity& c = capacity[static_cast<std::size_t>(resource)];
    const int cap = dim == 0 ? c.map : dim == 1 ? c.reduce : c.net;
    open.clear();
    int usage = 0;
    for (std::size_t i = 0; i < held.size();) {
      const Time t = held[i].start;
      while (!open.empty() && open.front().end <= t) {
        usage -= open.front().demand;
        std::pop_heap(open.begin(), open.end(), later_end);
        open.pop_back();
      }
      for (; i < held.size() && held[i].start == t; ++i) {
        usage += held[i].demand;
        open.push_back(held[i]);
        std::push_heap(open.begin(), open.end(), later_end);
      }
      if (usage > cap) {
        static constexpr const char* kDimName[] = {"map", "reduce", "net"};
        return "resource " + std::to_string(resource) + " " +
               kDimName[dim] + " capacity exceeded at t=" +
               std::to_string(t.count()) + " (" + std::to_string(usage) +
               " > " + std::to_string(cap) + ")";
      }
    }
  }
  return "";
}

}  // namespace

std::string check_schedule(const std::vector<ScheduleRow>& rows,
                           const std::vector<ResourceCapacity>& capacity,
                           const std::vector<RowEdge>& edges) {
  std::string err = anti_affinity(rows);
  if (err.empty()) err = barrier(rows);
  if (err.empty()) err = precedence(rows, edges);
  if (err.empty()) err = capacity_sweep(rows, capacity);
  return err;
}

}  // namespace mrcp
