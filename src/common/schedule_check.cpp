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
  struct Delta {
    int resource;
    int dim;  ///< 0 map, 1 reduce, 2 net
    Time at;
    int change;
    auto key() const { return std::tie(resource, dim, at); }
  };
  std::vector<Delta> deltas;
  deltas.reserve(rows.size() * 2);
  for (const ScheduleRow& r : rows) {
    const int dim = static_cast<int>(r.dim);
    deltas.push_back({r.resource, dim, r.start, r.demand});
    deltas.push_back({r.resource, dim, r.end, -r.demand});
    if (links_constrained && r.net_demand > 0) {
      deltas.push_back({r.resource, 2, r.start, r.net_demand});
      deltas.push_back({r.resource, 2, r.end, -r.net_demand});
    }
  }
  std::sort(deltas.begin(), deltas.end(),
            [](const Delta& a, const Delta& b) { return a.key() < b.key(); });
  // Every interval opens and closes in one (resource, dim) series, so
  // usage is back to 0 wherever a series ends.
  int usage = 0;
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    const Delta& d = deltas[i];
    usage += d.change;
    const bool last = i + 1 == deltas.size();
    // Compare once per instant, after all of its deltas are summed.
    if (!last && deltas[i + 1].key() == d.key()) continue;
    const ResourceCapacity& c =
        capacity[static_cast<std::size_t>(d.resource)];
    const int cap = d.dim == 0 ? c.map : d.dim == 1 ? c.reduce : c.net;
    if (usage > cap) {
      static constexpr const char* kDimName[] = {"map", "reduce", "net"};
      return "resource " + std::to_string(d.resource) + " " +
             kDimName[d.dim] + " capacity exceeded at t=" +
             std::to_string(d.at.count()) + " (" + std::to_string(usage) +
             " > " + std::to_string(cap) + ")";
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
