#include "common/schedule_check.h"

#include <algorithm>
#include <tuple>

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
  const bool links_constrained =
      std::any_of(capacity.begin(), capacity.end(),
                  [](const ResourceCapacity& c) { return c.net > 0; });
  // One series of deltas per (resource, dim), dim 0 map, 1 reduce, 2 net,
  // laid out in (resource, dim) order: a counting pass sizes each series,
  // so only the deltas within a series need sorting, by time alone.
  constexpr std::size_t kDims = 3;
  auto series = [](int resource, int dim) {
    return static_cast<std::size_t>(resource) * kDims +
           static_cast<std::size_t>(dim);
  };
  auto has_net = [&](const ScheduleRow& r) {
    return links_constrained && r.net_demand > 0;
  };
  std::vector<std::size_t> begin(capacity.size() * kDims + 1, 0);
  for (const ScheduleRow& r : rows) {
    begin[series(r.resource, static_cast<int>(r.dim)) + 1] += 2;
    if (has_net(r)) begin[series(r.resource, 2) + 1] += 2;
  }
  for (std::size_t s = 1; s < begin.size(); ++s) begin[s] += begin[s - 1];
  struct Delta {
    Time at;
    int change;
  };
  std::vector<Delta> deltas(begin.back());
  std::vector<std::size_t> fill(begin.begin(), begin.end() - 1);
  auto add = [&](std::size_t s, Time start, Time end, int demand) {
    deltas[fill[s]++] = {start, demand};
    deltas[fill[s]++] = {end, -demand};
  };
  for (const ScheduleRow& r : rows) {
    add(series(r.resource, static_cast<int>(r.dim)), r.start, r.end,
        r.demand);
    if (has_net(r)) add(series(r.resource, 2), r.start, r.end, r.net_demand);
  }
  // Every interval opens and closes in its own series, so usage is back
  // to 0 wherever a series ends.
  for (std::size_t s = 0; s + 1 < begin.size(); ++s) {
    const auto first = deltas.begin() + static_cast<std::ptrdiff_t>(begin[s]);
    const auto last =
        deltas.begin() + static_cast<std::ptrdiff_t>(begin[s + 1]);
    std::sort(first, last,
              [](const Delta& a, const Delta& b) { return a.at < b.at; });
    const int resource = static_cast<int>(s / kDims);
    const int dim = static_cast<int>(s % kDims);
    const ResourceCapacity& c = capacity[static_cast<std::size_t>(resource)];
    const int cap = dim == 0 ? c.map : dim == 1 ? c.reduce : c.net;
    int usage = 0;
    for (auto it = first; it != last; ++it) {
      usage += it->change;
      // Compare once per instant, after all of its deltas are summed.
      if (it + 1 != last && (it + 1)->at == it->at) continue;
      if (usage > cap) {
        static constexpr const char* kDimName[] = {"map", "reduce", "net"};
        return "resource " + std::to_string(resource) + " " +
               kDimName[dim] + " capacity exceeded at t=" +
               std::to_string(it->at.count()) + " (" +
               std::to_string(usage) + " > " + std::to_string(cap) + ")";
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
