// Reference copy of the EDF fallback in its former form: a greedy list
// scheduler with its own timetables, placement order and anti-affinity
// table, which never backtracks. Production fallback_schedule() is one
// first descent of SetTimesSearch; fallback_scheduler_test.cpp runs both
// on the same random models and requires identical placements wherever
// this greedy pass returns a valid schedule.
#pragma once

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "cp/model.h"
#include "cp/profile.h"
#include "cp/search.h"
#include "cp/solution.h"

namespace mrcp::reference {

using cp::CpJob;
using cp::CpJobIndex;
using cp::CpResource;
using cp::CpResourceIndex;
using cp::CpTask;
using cp::CpTaskIndex;
using cp::Model;
using cp::Phase;
using cp::Profile;
using cp::Solution;
using cp::TaskPlacement;

/// The per-(resource, phase) slot timetables plus per-resource link
/// timetables, mirroring SetTimesSearch's root state: pinned tasks are
/// pre-loaded, everything else is placed by the caller.
struct Timetables {
  explicit Timetables(const Model& model) : model_(model) {
    slots_.reserve(model.num_resources() * 2);
    net_.reserve(model.num_resources());
    for (const CpResource& r : model.resources()) {
      // Zero-capacity phases get a 1-capacity placeholder that is never
      // queried: hosts() filters on capacity >= demand first.
      slots_.emplace_back(std::max(1, r.map_capacity));
      slots_.emplace_back(std::max(1, r.reduce_capacity));
      net_.emplace_back(std::max(1, r.net_capacity));
    }
    links_constrained_ = model.links_constrained();
  }

  Profile& slot(CpResourceIndex r, Phase phase) {
    return slots_[static_cast<std::size_t>(r) * 2 +
                  static_cast<std::size_t>(phase)];
  }

  bool net_constrained(CpResourceIndex r, const CpTask& t) const {
    return t.net_demand > 0 && links_constrained_ &&
           model_.resource(r).net_capacity > 0;
  }

  /// Can resource `r` host `t` at all (static capacities)?
  bool hosts(CpResourceIndex r, const CpTask& t) const {
    const CpResource& res = model_.resource(r);
    if (res.capacity(t.phase) < t.demand) return false;
    // In a links-constrained cluster a zero-capacity resource offers no
    // link at all — not a valid home for a net-demanding task.
    if (t.net_demand > 0 && links_constrained_ &&
        res.net_capacity < t.net_demand) {
      return false;
    }
    return true;
  }

  /// Earliest start >= est feasible on BOTH the phase-slot profile and
  /// (when constrained) the network profile — fixpoint of the two
  /// one-dimensional queries, exactly as the CP search computes it.
  /// `duration` is the resource-scaled duration of `t` on `r`.
  Time earliest_on(CpResourceIndex r, const CpTask& t, Time est,
                   Time duration) {
    Profile& slots = slot(r, t.phase);
    if (!net_constrained(r, t)) {
      return slots.earliest_feasible(est, duration, t.demand);
    }
    Profile& net = net_[static_cast<std::size_t>(r)];
    Time start = est;
    while (true) {
      const Time s1 = slots.earliest_feasible(start, duration, t.demand);
      const Time s2 = net.earliest_feasible(s1, duration, t.net_demand);
      if (s2 == s1) return s1;
      start = s2;
    }
  }

  void place(CpResourceIndex r, const CpTask& t, Time start, Time duration) {
    slot(r, t.phase).add(start, duration, t.demand);
    if (net_constrained(r, t)) {
      net_[static_cast<std::size_t>(r)].add(start, duration, t.net_demand);
    }
  }

 private:
  const Model& model_;
  std::vector<Profile> slots_;  ///< [resource * 2 + phase]
  std::vector<Profile> net_;    ///< [resource], link usage
  bool links_constrained_ = false;
};

/// Non-pinned tasks in placement order: EDF job rank, maps before
/// reduces, index order within a phase — re-derived as a
/// priority-topological sort when user precedence edges exist (same
/// barrier treatment as SetTimesSearch: cross-job edges must not hoist a
/// reduce ahead of its own job's last map).
inline std::vector<CpTaskIndex> placement_order(const Model& model) {
  const std::vector<int> rank = make_job_ranks(model, cp::JobOrdering::kEdf);
  std::vector<CpTaskIndex> order;
  order.reserve(model.num_tasks());
  for (std::size_t ti = 0; ti < model.num_tasks(); ++ti) {
    if (!model.task(static_cast<CpTaskIndex>(ti)).pinned) {
      order.push_back(static_cast<CpTaskIndex>(ti));
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](CpTaskIndex a, CpTaskIndex b) {
                     const CpTask& ta = model.task(a);
                     const CpTask& tb = model.task(b);
                     const int ra = rank[static_cast<std::size_t>(ta.job)];
                     const int rb = rank[static_cast<std::size_t>(tb.job)];
                     if (ra != rb) return ra < rb;
                     if (ta.phase != tb.phase) return ta.phase == Phase::kMap;
                     return a < b;
                   });
  if (model.num_precedences() == 0) return order;

  std::vector<int> position(model.num_tasks(), -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    position[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  }
  std::vector<int> indeg(model.num_tasks(), 0);
  std::vector<std::vector<CpTaskIndex>> succs(model.num_tasks());
  auto add_edge = [&](CpTaskIndex before, CpTaskIndex after) {
    succs[static_cast<std::size_t>(before)].push_back(after);
    ++indeg[static_cast<std::size_t>(after)];
  };
  for (CpTaskIndex t : order) {
    for (CpTaskIndex p : model.predecessors(t)) {
      if (model.task(p).pinned) continue;  // already placed at the root
      add_edge(p, t);
    }
  }
  for (const CpJob& j : model.jobs()) {
    for (CpTaskIndex mt : j.map_tasks) {
      if (model.task(mt).pinned) continue;
      for (CpTaskIndex rt : j.reduce_tasks) {
        if (model.task(rt).pinned) continue;
        add_edge(mt, rt);
      }
    }
  }
  auto later = [&](CpTaskIndex a, CpTaskIndex b) {
    return position[static_cast<std::size_t>(a)] >
           position[static_cast<std::size_t>(b)];
  };
  std::vector<CpTaskIndex> heap;
  for (CpTaskIndex t : order) {
    if (indeg[static_cast<std::size_t>(t)] == 0) heap.push_back(t);
  }
  std::make_heap(heap.begin(), heap.end(), later);
  std::vector<CpTaskIndex> topo;
  topo.reserve(order.size());
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const CpTaskIndex t = heap.back();
    heap.pop_back();
    topo.push_back(t);
    for (CpTaskIndex s : succs[static_cast<std::size_t>(t)]) {
      if (--indeg[static_cast<std::size_t>(s)] == 0) {
        heap.push_back(s);
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
  }
  MRCP_CHECK_MSG(topo.size() == order.size(), "precedence graph has a cycle");
  return topo;
}

inline cp::Solution fallback_schedule(const cp::Model& model) {
  Solution sol;
  sol.placements.assign(model.num_tasks(), TaskPlacement{});

  Timetables tables(model);
  // Anti-affinity: which resources each group already occupies
  // ([group * num_resources + resource]), pinned members replayed.
  std::vector<int> group_use(
      static_cast<std::size_t>(model.num_affinity_groups()) *
          model.num_resources(),
      0);
  auto group_slot = [&](int group, CpResourceIndex r) -> int& {
    return group_use[static_cast<std::size_t>(group) * model.num_resources() +
                     static_cast<std::size_t>(r)];
  };
  std::vector<Time> fixed_map_end(model.num_jobs(), Time{0});
  for (std::size_t ji = 0; ji < model.num_jobs(); ++ji) {
    fixed_map_end[ji] = model.job(static_cast<CpJobIndex>(ji)).earliest_start;
  }
  for (std::size_t ti = 0; ti < model.num_tasks(); ++ti) {
    const CpTask& t = model.task(static_cast<CpTaskIndex>(ti));
    if (!t.pinned) continue;
    const Time dur =
        model.duration_on(static_cast<CpTaskIndex>(ti), t.pinned_resource);
    tables.place(t.pinned_resource, t, t.pinned_start, dur);
    sol.placements[ti] = TaskPlacement{t.pinned_resource, t.pinned_start};
    if (t.affinity_group >= 0) ++group_slot(t.affinity_group, t.pinned_resource);
    if (t.phase == Phase::kMap) {
      const auto ji = static_cast<std::size_t>(t.job);
      fixed_map_end[ji] = std::max(fixed_map_end[ji], t.pinned_start + dur);
    }
  }

  for (CpTaskIndex ti : placement_order(model)) {
    const CpTask& t = model.task(ti);
    const CpJob& j = model.job(t.job);
    const auto ji = static_cast<std::size_t>(t.job);
    Time est = t.phase == Phase::kMap
                   ? j.earliest_start
                   : std::max(j.earliest_start, fixed_map_end[ji]);
    for (CpTaskIndex p : model.predecessors(ti)) {
      const TaskPlacement& pp = sol.placements[static_cast<std::size_t>(p)];
      MRCP_DCHECK(pp.decided());
      est = std::max(est, pp.start + model.duration_on(p, pp.resource));
    }

    // Greedy pick: earliest *completion* (start on homogeneous clusters,
    // where every duration ties and the first resource wins as before).
    CpResourceIndex chosen = cp::kAnyResource;
    Time chosen_start = kMaxTime;
    Time chosen_dur = Time{0};
    Time chosen_end = kMaxTime;
    auto consider = [&](CpResourceIndex r) {
      if (!tables.hosts(r, t)) return;
      if (t.affinity_group >= 0 && group_slot(t.affinity_group, r) > 0) return;
      const Time dur = model.duration_on(ti, r);
      const Time start = tables.earliest_on(r, t, est, dur);
      if (start + dur < chosen_end) {
        chosen = r;
        chosen_start = start;
        chosen_dur = dur;
        chosen_end = start + dur;
      }
    };
    if (t.candidates.empty()) {
      for (CpResourceIndex r = 0;
           r < static_cast<CpResourceIndex>(model.num_resources()); ++r) {
        consider(r);
      }
    } else {
      for (CpResourceIndex r : t.candidates) consider(r);
    }
    if (chosen == cp::kAnyResource) return Solution{};  // no host: invalid

    tables.place(chosen, t, chosen_start, chosen_dur);
    sol.placements[static_cast<std::size_t>(ti)] =
        TaskPlacement{chosen, chosen_start};
    if (t.affinity_group >= 0) ++group_slot(t.affinity_group, chosen);
    if (t.phase == Phase::kMap) {
      fixed_map_end[ji] =
          std::max(fixed_map_end[ji], chosen_start + chosen_dur);
    }
  }

  evaluate_solution(model, sol);
  return sol;
}

}  // namespace mrcp::reference
