#include "cp/audit.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/check.h"

namespace mrcp::cp::audit {

// ---------------------------------------------------------------------------
// ReferenceProfile
// ---------------------------------------------------------------------------

void ReferenceProfile::add(Time start, Time duration, int demand) {
  MRCP_CHECK(duration >= Time{1});
  MRCP_CHECK(demand >= 1);
  intervals_.push_back(Interval{start, duration, demand});
}

void ReferenceProfile::remove(Time start, Time duration, int demand) {
  auto it = std::find_if(intervals_.begin(), intervals_.end(),
                         [&](const Interval& iv) {
                           return iv.start == start && iv.duration == duration &&
                                  iv.demand == demand;
                         });
  MRCP_CHECK_MSG(it != intervals_.end(),
                 "ReferenceProfile::remove of an interval never added");
  intervals_.erase(it);
}

int ReferenceProfile::usage_at(Time t) const {
  int usage = 0;
  for (const Interval& iv : intervals_) {
    if (iv.start <= t && t < iv.start + iv.duration) usage += iv.demand;
  }
  return usage;
}

bool ReferenceProfile::fits(Time start, Time duration, int demand) const {
  if (demand > capacity_) return false;
  const Time end = start + duration;
  // Usage within [start, end) changes only at interval starts; checking
  // `start` and every interval start inside the window covers every level.
  if (usage_at(start) + demand > capacity_) return false;
  for (const Interval& iv : intervals_) {
    if (iv.start > start && iv.start < end &&
        usage_at(iv.start) + demand > capacity_) {
      return false;
    }
  }
  return true;
}

Time ReferenceProfile::earliest_feasible(Time est, Time duration,
                                         int demand) const {
  MRCP_CHECK(demand <= capacity_);
  if (fits(est, duration, demand)) return est;
  // Usage only drops at interval end points, so the answer is one of them.
  std::vector<Time> candidates;
  candidates.reserve(intervals_.size());
  for (const Interval& iv : intervals_) {
    const Time end = iv.start + iv.duration;
    if (end > est) candidates.push_back(end);
  }
  std::sort(candidates.begin(), candidates.end());
  for (Time t : candidates) {
    if (fits(t, duration, demand)) return t;
  }
  MRCP_CHECK_MSG(false, "ReferenceProfile: no feasible start found");
  return kMaxTime;
}

std::vector<Time> ReferenceProfile::change_points() const {
  std::vector<Time> points;
  points.reserve(intervals_.size() * 2);
  for (const Interval& iv : intervals_) {
    points.push_back(iv.start);
    points.push_back(iv.start + iv.duration);
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  return points;
}

// ---------------------------------------------------------------------------
// Cross-checks
// ---------------------------------------------------------------------------

namespace {

std::string mismatch(const char* what, Time t, long long fast_value,
                     long long ref_value) {
  std::ostringstream os;
  os << "profile audit: " << what << " diverges at t=" << t
     << " (fast=" << fast_value << ", reference=" << ref_value << ")";
  return os.str();
}

}  // namespace

std::string check_profile_against_reference(const Profile& fast,
                                            const ReferenceProfile& ref) {
  if (fast.capacity() != ref.capacity()) {
    return mismatch("capacity", Time{0}, fast.capacity(), ref.capacity());
  }
  // Walk the union of both change-point sets (a level the fast profile
  // dropped shows up at a reference point, and vice versa), comparing
  // the usage level at each point and immediately before it (one tick
  // earlier lies in the preceding segment).
  std::vector<Time> points = ref.change_points();
  Time t = std::numeric_limits<Time>::min();
  while ((t = fast.next_event_after(t)) != kMaxTime) points.push_back(t);
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  for (Time p : points) {
    if (fast.usage_at(p) != ref.usage_at(p)) {
      return mismatch("usage", p, fast.usage_at(p), ref.usage_at(p));
    }
    if (p > std::numeric_limits<Time>::min() &&
        fast.usage_at(p - Time{1}) != ref.usage_at(p - Time{1})) {
      return mismatch("usage", p - Time{1}, fast.usage_at(p - Time{1}), ref.usage_at(p - Time{1}));
    }
  }
  // After the last fast event the level must be zero and stay zero — a
  // reference interval extending past it would make ref non-zero there.
  const Time horizon = points.empty() ? Time{0} : points.back();
  if (fast.usage_at(horizon) != 0 || ref.usage_at(horizon) != 0) {
    return mismatch("tail usage", horizon, fast.usage_at(horizon),
                    ref.usage_at(horizon));
  }
  return "";
}

std::string check_earliest_feasible_answer(const Profile& profile, Time est,
                                           Time duration, int demand,
                                           Time got) {
  std::ostringstream os;
  if (got < est) {
    os << "earliest_feasible audit: non-monotone answer " << got
       << " < est " << est;
    return os.str();
  }
  if (!profile.fits(got, duration, demand)) {
    os << "earliest_feasible audit: answer " << got
       << " does not fit (duration=" << duration << ", demand=" << demand
       << ") in " << profile.to_string();
    return os.str();
  }
  const Time again = profile.earliest_feasible(got, duration, demand);
  if (again != got) {
    os << "earliest_feasible audit: not idempotent (got " << got
       << ", re-query returned " << again << ")";
    return os.str();
  }
  // Minimality: no start in [est, got) fits. It suffices to test est and
  // every profile change point in (est, got): if some start s fits, the
  // usage on [prev_change(s), s) equals the usage at s, so prev_change(s)
  // (or est, if later) fits as well.
  if (got > est && profile.fits(est, duration, demand)) {
    os << "earliest_feasible audit: not minimal (est " << est
       << " already fits, got " << got << ")";
    return os.str();
  }
  Time t = est;
  while ((t = profile.next_event_after(t)) < got) {
    if (profile.fits(t, duration, demand)) {
      os << "earliest_feasible audit: not minimal (start " << t
         << " fits, got " << got << ")";
      return os.str();
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Brute-force solution oracle
// ---------------------------------------------------------------------------

std::string brute_force_check_solution(const Model& model,
                                       const Solution& sol) {
  std::ostringstream os;
  if (sol.placements.size() != model.num_tasks()) {
    return "brute-force audit: placement count mismatch";
  }
  const auto n = static_cast<CpTaskIndex>(model.num_tasks());
  for (CpTaskIndex ti = 0; ti < n; ++ti) {
    const CpTask& t = model.task(ti);
    const TaskPlacement& p = sol.placements[static_cast<std::size_t>(ti)];
    if (!p.decided() || p.start < Time{0} || p.resource < 0 ||
        static_cast<std::size_t>(p.resource) >= model.num_resources()) {
      os << "brute-force audit: task " << ti << " undecided or out of range";
      return os.str();
    }
    if (!t.candidates.empty() &&
        std::find(t.candidates.begin(), t.candidates.end(), p.resource) ==
            t.candidates.end()) {
      os << "brute-force audit: task " << ti << " placed off-candidate";
      return os.str();
    }
    if (t.pinned &&
        (p.resource != t.pinned_resource || p.start != t.pinned_start)) {
      os << "brute-force audit: task " << ti << " violates pinning";
      return os.str();
    }
    const CpJob& j = model.job(t.job);
    if (!t.pinned && t.phase == Phase::kMap && p.start < j.earliest_start) {
      os << "brute-force audit: map task " << ti << " starts before s_j";
      return os.str();
    }
    // Constraint 3 — this reduce after every map of its job. Durations
    // are taken at each map's assigned machine speed.
    if (!t.pinned && t.phase == Phase::kReduce) {
      for (CpTaskIndex m : j.map_tasks) {
        const TaskPlacement& mp = sol.placements[static_cast<std::size_t>(m)];
        if (p.start < mp.start + model.duration_on(m, mp.resource)) {
          os << "brute-force audit: reduce " << ti << " overlaps map " << m;
          return os.str();
        }
      }
    }
    // Workflow precedences.
    if (!t.pinned) {
      for (CpTaskIndex pred : model.predecessors(ti)) {
        const TaskPlacement& pp =
            sol.placements[static_cast<std::size_t>(pred)];
        if (p.start < pp.start + model.duration_on(pred, pp.resource)) {
          os << "brute-force audit: task " << ti << " starts before pred "
             << pred << " ends";
          return os.str();
        }
      }
    }
    // Anti-affinity: no other task of the same group on the same resource.
    if (t.affinity_group >= 0) {
      for (CpTaskIndex tj = 0; tj < n; ++tj) {
        if (tj == ti) continue;
        const CpTask& u = model.task(tj);
        if (u.affinity_group == t.affinity_group &&
            sol.placements[static_cast<std::size_t>(tj)].resource ==
                p.resource) {
          os << "brute-force audit: tasks " << ti << " and " << tj
             << " of affinity group " << t.affinity_group
             << " share resource " << p.resource;
          return os.str();
        }
      }
    }
  }
  // Capacity, by direct pairwise overlap: at each task's start, sum the
  // demands of every same-resource same-dimension task covering it.
  const bool links = model.links_constrained();
  for (CpTaskIndex ti = 0; ti < n; ++ti) {
    const CpTask& t = model.task(ti);
    const TaskPlacement& p = sol.placements[static_cast<std::size_t>(ti)];
    const CpResource& res = model.resource(p.resource);
    int slot_usage = 0;
    int net_usage = 0;
    for (CpTaskIndex tj = 0; tj < n; ++tj) {
      const CpTask& u = model.task(tj);
      const TaskPlacement& q = sol.placements[static_cast<std::size_t>(tj)];
      if (q.resource != p.resource) continue;
      const bool covers =
          q.start <= p.start &&
          p.start < q.start + model.duration_on(tj, q.resource);
      if (!covers) continue;
      if (u.phase == t.phase) slot_usage += u.demand;
      if (links && u.net_demand > 0) net_usage += u.net_demand;
    }
    if (slot_usage > res.capacity(t.phase)) {
      os << "brute-force audit: resource " << p.resource << " "
         << (t.phase == Phase::kMap ? "map" : "reduce")
         << " capacity exceeded at t=" << p.start << " (" << slot_usage
         << " > " << res.capacity(t.phase) << ")";
      return os.str();
    }
    if (links && t.net_demand > 0 && net_usage > res.net_capacity) {
      os << "brute-force audit: resource " << p.resource
         << " link capacity exceeded at t=" << p.start << " (" << net_usage
         << " > " << res.net_capacity << ")";
      return os.str();
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Exhaustive enumeration oracle
// ---------------------------------------------------------------------------

namespace {

struct EnumState {
  const Model& model;
  std::int64_t budget;
  bool exhausted_budget = false;
  int best_late = std::numeric_limits<int>::max();

  std::vector<TaskPlacement> placements;
  std::vector<int> unscheduled_preds;  ///< per task, counting maps for reduces
  std::vector<std::vector<CpTaskIndex>> succs;
  // One ReferenceProfile per (resource, phase) plus one per resource for
  // links.
  std::vector<ReferenceProfile> slots;
  std::vector<ReferenceProfile> net;
  std::vector<int> group_use;  ///< [group * num_resources + resource]
  bool links;
};

Time enum_earliest_start(const EnumState& st, CpTaskIndex ti) {
  const CpTask& t = st.model.task(ti);
  const CpJob& j = st.model.job(t.job);
  Time est = j.earliest_start;
  if (t.phase == Phase::kReduce) {
    for (CpTaskIndex m : j.map_tasks) {
      const TaskPlacement& mp = st.placements[static_cast<std::size_t>(m)];
      est = std::max(est,
                     mp.start + st.model.duration_on(m, mp.resource));
    }
  }
  for (CpTaskIndex p : st.model.predecessors(ti)) {
    const TaskPlacement& pp = st.placements[static_cast<std::size_t>(p)];
    est = std::max(est, pp.start + st.model.duration_on(p, pp.resource));
  }
  return est;
}

void enum_recurse(EnumState& st, std::size_t scheduled) {
  if (st.exhausted_budget) return;
  if (scheduled == st.model.num_tasks()) {
    if (--st.budget < 0) {
      st.exhausted_budget = true;
      return;
    }
    int late = 0;
    for (std::size_t ji = 0; ji < st.model.num_jobs(); ++ji) {
      const CpJob& j = st.model.job(static_cast<CpJobIndex>(ji));
      Time completion{};
      for (CpTaskIndex m : j.map_tasks) {
        const auto& p = st.placements[static_cast<std::size_t>(m)];
        completion =
            std::max(completion, p.start + st.model.duration_on(m, p.resource));
      }
      for (CpTaskIndex r : j.reduce_tasks) {
        const auto& p = st.placements[static_cast<std::size_t>(r)];
        completion =
            std::max(completion, p.start + st.model.duration_on(r, p.resource));
      }
      if (completion > j.deadline) ++late;
    }
    st.best_late = std::min(st.best_late, late);
    return;
  }
  const auto n = static_cast<CpTaskIndex>(st.model.num_tasks());
  for (CpTaskIndex ti = 0; ti < n && !st.exhausted_budget; ++ti) {
    if (st.placements[static_cast<std::size_t>(ti)].decided()) continue;
    if (st.unscheduled_preds[static_cast<std::size_t>(ti)] > 0) continue;
    const CpTask& t = st.model.task(ti);
    const Time est = enum_earliest_start(st, ti);

    auto try_resource = [&](CpResourceIndex r) {
      const CpResource& res = st.model.resource(r);
      if (res.capacity(t.phase) < t.demand) return;
      const bool net_active = st.links && t.net_demand > 0;
      if (net_active && res.net_capacity < t.net_demand) return;
      // Anti-affinity: a resource already holding a group member is not an
      // alternative for this task.
      const std::size_t group_key =
          t.affinity_group >= 0
              ? static_cast<std::size_t>(t.affinity_group) *
                        st.model.num_resources() +
                    static_cast<std::size_t>(r)
              : 0;
      if (t.affinity_group >= 0 && st.group_use[group_key] > 0) return;
      // The effective duration is this machine's — the enum oracle scales
      // independently of the engine.
      const Time dur = st.model.duration_on(ti, r);
      ReferenceProfile& slot =
          st.slots[static_cast<std::size_t>(r) * 2 +
                   static_cast<std::size_t>(t.phase)];
      ReferenceProfile& link = st.net[static_cast<std::size_t>(r)];
      // Fixpoint of the two reference queries (mirrors the engine's
      // definition of feasibility, computed independently).
      Time start = est;
      while (true) {
        const Time s1 = slot.earliest_feasible(start, dur, t.demand);
        const Time s2 = net_active
                            ? link.earliest_feasible(s1, dur, t.net_demand)
                            : s1;
        if (s2 == s1) {
          start = s1;
          break;
        }
        start = s2;
      }
      slot.add(start, dur, t.demand);
      if (net_active) link.add(start, dur, t.net_demand);
      if (t.affinity_group >= 0) ++st.group_use[group_key];
      st.placements[static_cast<std::size_t>(ti)] = TaskPlacement{r, start};
      for (CpTaskIndex s : st.succs[static_cast<std::size_t>(ti)]) {
        --st.unscheduled_preds[static_cast<std::size_t>(s)];
      }

      enum_recurse(st, scheduled + 1);

      for (CpTaskIndex s : st.succs[static_cast<std::size_t>(ti)]) {
        ++st.unscheduled_preds[static_cast<std::size_t>(s)];
      }
      st.placements[static_cast<std::size_t>(ti)] = TaskPlacement{};
      if (t.affinity_group >= 0) --st.group_use[group_key];
      slot.remove(start, dur, t.demand);
      if (net_active) link.remove(start, dur, t.net_demand);
    };

    if (t.candidates.empty()) {
      for (CpResourceIndex r = 0;
           r < static_cast<CpResourceIndex>(st.model.num_resources()); ++r) {
        try_resource(r);
      }
    } else {
      for (CpResourceIndex r : t.candidates) try_resource(r);
    }
  }
}

}  // namespace

int exhaustive_min_late(const Model& model, std::int64_t max_schedules) {
  MRCP_CHECK_MSG(model.validate().empty(),
                 "exhaustive_min_late: invalid model");
  EnumState st{model, max_schedules, false, std::numeric_limits<int>::max(),
               {}, {}, {}, {}, {}, {}, model.links_constrained()};
  st.placements.assign(model.num_tasks(), TaskPlacement{});
  st.unscheduled_preds.assign(model.num_tasks(), 0);
  st.succs.assign(model.num_tasks(), {});
  if (model.num_affinity_groups() > 0) {
    st.group_use.assign(static_cast<std::size_t>(model.num_affinity_groups()) *
                            model.num_resources(),
                        0);
  }
  st.slots.reserve(model.num_resources() * 2);
  st.net.reserve(model.num_resources());
  for (const CpResource& r : model.resources()) {
    st.slots.emplace_back(std::max(1, r.map_capacity));
    st.slots.emplace_back(std::max(1, r.reduce_capacity));
    st.net.emplace_back(std::max(1, r.net_capacity));
  }
  // Precedence bookkeeping: reduces wait for their job's maps, plus any
  // user precedences. Pinned tasks are pre-placed and never counted.
  const auto n = static_cast<CpTaskIndex>(model.num_tasks());
  std::size_t pre_placed = 0;
  for (CpTaskIndex ti = 0; ti < n; ++ti) {
    const CpTask& t = model.task(ti);
    if (t.pinned) {
      const Time dur = model.duration_on(ti, t.pinned_resource);
      st.placements[static_cast<std::size_t>(ti)] =
          TaskPlacement{t.pinned_resource, t.pinned_start};
      st.slots[static_cast<std::size_t>(t.pinned_resource) * 2 +
               static_cast<std::size_t>(t.phase)]
          .add(t.pinned_start, dur, t.demand);
      if (st.links && t.net_demand > 0 &&
          model.resource(t.pinned_resource).net_capacity > 0) {
        st.net[static_cast<std::size_t>(t.pinned_resource)].add(
            t.pinned_start, dur, t.net_demand);
      }
      if (t.affinity_group >= 0) {
        ++st.group_use[static_cast<std::size_t>(t.affinity_group) *
                           model.num_resources() +
                       static_cast<std::size_t>(t.pinned_resource)];
      }
      ++pre_placed;
      continue;
    }
    const CpJob& j = model.job(t.job);
    if (t.phase == Phase::kReduce) {
      for (CpTaskIndex m : j.map_tasks) {
        if (model.task(m).pinned) continue;
        st.succs[static_cast<std::size_t>(m)].push_back(ti);
        ++st.unscheduled_preds[static_cast<std::size_t>(ti)];
      }
    }
    for (CpTaskIndex p : model.predecessors(ti)) {
      if (model.task(p).pinned) continue;
      st.succs[static_cast<std::size_t>(p)].push_back(ti);
      ++st.unscheduled_preds[static_cast<std::size_t>(ti)];
    }
  }
  enum_recurse(st, pre_placed);
  if (st.exhausted_budget) return -1;
  return st.best_late;
}

}  // namespace mrcp::cp::audit
