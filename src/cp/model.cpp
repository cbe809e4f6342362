#include "cp/model.h"

#include <algorithm>

namespace mrcp::cp {

CpResourceIndex Model::add_resource(int map_capacity, int reduce_capacity,
                                    int net_capacity, int speed_permille) {
  MRCP_CHECK(map_capacity >= 0 && reduce_capacity >= 0 && net_capacity >= 0);
  MRCP_CHECK(speed_permille > 0);
  resources_.push_back(
      CpResource{map_capacity, reduce_capacity, net_capacity, speed_permille});
  max_speed_permille_ = std::max(max_speed_permille_, speed_permille);
  hetero_speeds_ = hetero_speeds_ || speed_permille != kBaseSpeedPermille;
  return static_cast<CpResourceIndex>(resources_.size() - 1);
}

CpJobIndex Model::add_job(Time earliest_start, Time deadline,
                          std::int64_t external_id) {
  MRCP_CHECK(earliest_start >= Time{0});
  MRCP_CHECK(deadline > Time{0});
  CpJob j;
  j.earliest_start = earliest_start;
  j.deadline = deadline;
  j.external_id = external_id;
  jobs_.push_back(std::move(j));
  return static_cast<CpJobIndex>(jobs_.size() - 1);
}

void Model::reserve(std::size_t jobs, std::size_t tasks) {
  jobs_.reserve(jobs);
  tasks_.reserve(tasks);
  preds_.reserve(tasks);
}

CpTaskIndex Model::add_task(CpJobIndex job, Phase phase, Time duration, int demand,
                            std::int64_t external_id, int net_demand) {
  MRCP_CHECK(job >= 0 && static_cast<std::size_t>(job) < jobs_.size());
  MRCP_CHECK(duration > Time{0});
  MRCP_CHECK(demand >= 1);
  MRCP_CHECK(net_demand >= 0);
  CpTask t;
  t.job = job;
  t.phase = phase;
  t.duration = duration;
  t.demand = demand;
  t.net_demand = net_demand;
  t.external_id = external_id;
  tasks_.push_back(std::move(t));
  preds_.emplace_back();
  const auto index = static_cast<CpTaskIndex>(tasks_.size() - 1);
  if (phase == Phase::kMap) {
    jobs_[static_cast<std::size_t>(job)].map_tasks.push_back(index);
  } else {
    jobs_[static_cast<std::size_t>(job)].reduce_tasks.push_back(index);
  }
  return index;
}

void Model::restrict_candidates(CpTaskIndex task,
                                std::vector<CpResourceIndex> resources) {
  MRCP_CHECK(task >= 0 && static_cast<std::size_t>(task) < tasks_.size());
  for (CpResourceIndex r : resources) {
    MRCP_CHECK(r >= 0 && static_cast<std::size_t>(r) < resources_.size());
  }
  tasks_[static_cast<std::size_t>(task)].candidates = std::move(resources);
}

void Model::set_affinity_group(CpTaskIndex task, int group) {
  MRCP_CHECK(task >= 0 && static_cast<std::size_t>(task) < tasks_.size());
  MRCP_CHECK(group >= 0);
  tasks_[static_cast<std::size_t>(task)].affinity_group = group;
  num_affinity_groups_ = std::max(num_affinity_groups_, group + 1);
}

void Model::pin_task(CpTaskIndex task, CpResourceIndex resource, Time start) {
  MRCP_CHECK(task >= 0 && static_cast<std::size_t>(task) < tasks_.size());
  MRCP_CHECK(resource >= 0 && static_cast<std::size_t>(resource) < resources_.size());
  MRCP_CHECK(start >= Time{0});
  CpTask& t = tasks_[static_cast<std::size_t>(task)];
  t.pinned = true;
  t.pinned_resource = resource;
  t.pinned_start = start;
}

void Model::add_precedence(CpTaskIndex before, CpTaskIndex after) {
  MRCP_CHECK(before >= 0 && static_cast<std::size_t>(before) < tasks_.size());
  MRCP_CHECK(after >= 0 && static_cast<std::size_t>(after) < tasks_.size());
  MRCP_CHECK_MSG(before != after, "precedence self-loop");
  preds_[static_cast<std::size_t>(after)].push_back(before);
  ++num_precedences_;
}

Time Model::static_earliest_start(CpTaskIndex task) const {
  const CpTask& t = tasks_[static_cast<std::size_t>(task)];
  if (t.pinned) return t.pinned_start;
  const CpJob& j = jobs_[static_cast<std::size_t>(t.job)];
  Time est = j.earliest_start;
  // Durations are assignment-dependent: a pinned task runs at its fixed
  // resource's speed, an undecided one no faster than min_duration — both
  // keep this a valid lower bound.
  auto duration_lb = [&](CpTaskIndex i) {
    const CpTask& other = tasks_[static_cast<std::size_t>(i)];
    return other.pinned ? duration_on(i, other.pinned_resource)
                        : min_duration(i);
  };
  if (t.phase == Phase::kReduce) {
    // A reduce may not start before every map of the job could have ended.
    for (CpTaskIndex m : j.map_tasks) {
      const CpTask& mt = tasks_[static_cast<std::size_t>(m)];
      const Time start_lb = mt.pinned ? mt.pinned_start : j.earliest_start;
      est = std::max(est, start_lb + duration_lb(m));
    }
  }
  // User precedences: recursive chains tighten this further, but the
  // direct-predecessor bound is enough for a static LB (the search
  // tracks exact fixed ends during placement).
  for (CpTaskIndex p : preds_[static_cast<std::size_t>(task)]) {
    const CpTask& pt = tasks_[static_cast<std::size_t>(p)];
    const Time start_lb = pt.pinned
                              ? pt.pinned_start
                              : jobs_[static_cast<std::size_t>(pt.job)]
                                    .earliest_start;
    est = std::max(est, start_lb + duration_lb(p));
  }
  return est;
}

Time Model::completion_lower_bound(CpJobIndex job) const {
  // Two valid lower bounds, combined with max:
  //  (a) critical-task bound: every task ends no earlier than its static
  //      earliest start plus its duration (folds in s_j, the map-phase
  //      barrier, pinned starts, direct user predecessors);
  //  (b) energetic bound: even with the whole cluster to itself, the
  //      job's map phase needs ceil(map_work / total_map_slots) and its
  //      reduce phase ceil(reduce_work / total_reduce_slots) from s_j —
  //      phases are sequential.
  // (a) is static_earliest_start() per task, with the map barrier it
  // recomputes for every reduce folded into one pass over the maps, so
  // the bound stays linear in the job's tasks and direct predecessors.
  const CpJob& j = jobs_[static_cast<std::size_t>(job)];
  Time map_work{};
  Time reduce_work{};
  // Both bounds use assignment-independent duration lower bounds: a
  // pinned task's duration is exact at its fixed resource, an undecided
  // task's is min_duration (no machine runs it faster).
  auto duration_lb = [&](CpTaskIndex t) {
    const CpTask& task = tasks_[static_cast<std::size_t>(t)];
    return task.pinned ? duration_on(t, task.pinned_resource)
                       : min_duration(t);
  };
  // Earliest start of an unpinned task from s_j (or the map barrier)
  // and its direct user predecessors.
  auto unpinned_est = [&](CpTaskIndex t, Time est) {
    for (CpTaskIndex p : preds_[static_cast<std::size_t>(t)]) {
      const CpTask& pt = tasks_[static_cast<std::size_t>(p)];
      const Time start_lb =
          pt.pinned ? pt.pinned_start
                    : jobs_[static_cast<std::size_t>(pt.job)].earliest_start;
      est = std::max(est, start_lb + duration_lb(p));
    }
    return est;
  };
  Time completion = j.earliest_start;
  Time barrier = j.earliest_start;  // no reduce starts before every map ends
  for (CpTaskIndex t : j.map_tasks) {
    const CpTask& task = tasks_[static_cast<std::size_t>(t)];
    const Time dur = duration_lb(t);
    const Time start =
        task.pinned ? task.pinned_start : unpinned_est(t, j.earliest_start);
    completion = std::max(completion, start + dur);
    barrier = std::max(
        barrier, (task.pinned ? task.pinned_start : j.earliest_start) + dur);
    if (!task.pinned) map_work += dur;
  }
  for (CpTaskIndex t : j.reduce_tasks) {
    const CpTask& task = tasks_[static_cast<std::size_t>(t)];
    const Time dur = duration_lb(t);
    const Time start =
        task.pinned ? task.pinned_start : unpinned_est(t, barrier);
    completion = std::max(completion, start + dur);
    if (!task.pinned) reduce_work += dur;
  }
  std::int64_t map_slots = 0;
  std::int64_t reduce_slots = 0;
  for (const CpResource& r : resources_) {
    map_slots += r.map_capacity;
    reduce_slots += r.reduce_capacity;
  }
  Time energetic = j.earliest_start;
  if (map_work > Time{0} && map_slots > 0) {
    energetic += ceil_div(map_work, map_slots);
  }
  if (reduce_work > Time{0} && reduce_slots > 0) {
    energetic += ceil_div(reduce_work, reduce_slots);
  }
  return std::max(completion, energetic);
}

bool Model::links_constrained() const {
  for (const CpResource& r : resources_) {
    if (r.net_capacity > 0) return true;
  }
  return false;
}

std::string Model::validate() const {
  if (resources_.empty()) return "model has no resources";
  const bool links = links_constrained();
  for (std::size_t ti = 0; ti < tasks_.size(); ++ti) {
    const CpTask& t = tasks_[ti];
    // The "task N: " prefix is only formatted on the failure path.
    auto fail = [ti](const char* what) {
      return "task " + std::to_string(ti) + ": " + what;
    };
    if (t.duration <= Time{0}) return fail("non-positive duration");
    if (t.demand < 1) return fail("demand < 1");
    for (CpResourceIndex r : t.candidates) {
      if (r < 0 || static_cast<std::size_t>(r) >= resources_.size()) {
        return fail("candidate resource out of range");
      }
    }
    // Demand must fit on at least one candidate resource's capacity
    // (slot demand, and link demand where the resource constrains links).
    bool fits = false;
    auto check_fit = [&](const CpResource& res) {
      if (res.capacity(t.phase) < t.demand) return false;
      // With links constrained cluster-wide, a zero-capacity resource
      // cannot host a net-demanding task (it is not "unconstrained").
      if (t.net_demand > 0 && links && res.net_capacity < t.net_demand) {
        return false;
      }
      return true;
    };
    if (t.candidates.empty()) {
      for (const CpResource& res : resources_) fits = fits || check_fit(res);
    } else {
      for (CpResourceIndex r : t.candidates) {
        fits = fits || check_fit(resources_[static_cast<std::size_t>(r)]);
      }
    }
    if (!fits) return fail("demand exceeds every candidate's capacity");
    if (t.pinned) {
      const auto& res = resources_[static_cast<std::size_t>(t.pinned_resource)];
      if (!check_fit(res)) {
        return fail("pinned to resource without capacity");
      }
      if (!t.candidates.empty() &&
          std::find(t.candidates.begin(), t.candidates.end(), t.pinned_resource) ==
              t.candidates.end()) {
        return fail("pinned resource not among candidates");
      }
    }
  }
  for (std::size_t ji = 0; ji < jobs_.size(); ++ji) {
    const CpJob& j = jobs_[ji];
    // Note: deadline <= earliest_start is allowed — in the open system a
    // job's s_j is clamped to "now" on every RM invocation, so a job that
    // is already past its deadline while waiting is simply (statically)
    // late, not malformed.
    if (j.map_tasks.empty() && j.reduce_tasks.empty()) {
      return "job " + std::to_string(ji) + ": no tasks";
    }
  }

  // Anti-affinity groups: each group needs as many pairwise-distinct
  // capable resources as it has members (a Hall-style necessary check on
  // the union of the members' eligible sets), and pinned members must not
  // already collide. The RM parks jobs whose groups cannot fit before
  // building a model, so a violation here is a modeling bug.
  if (num_affinity_groups_ > 0) {
    std::vector<std::vector<bool>> eligible(
        static_cast<std::size_t>(num_affinity_groups_),
        std::vector<bool>(resources_.size(), false));
    std::vector<int> members(static_cast<std::size_t>(num_affinity_groups_), 0);
    std::vector<std::vector<CpResourceIndex>> pinned_at(
        static_cast<std::size_t>(num_affinity_groups_));
    for (std::size_t ti = 0; ti < tasks_.size(); ++ti) {
      const CpTask& t = tasks_[ti];
      if (t.affinity_group < 0) continue;
      const auto g = static_cast<std::size_t>(t.affinity_group);
      ++members[g];
      if (t.pinned) pinned_at[g].push_back(t.pinned_resource);
      auto mark = [&](CpResourceIndex r) {
        if (resources_[static_cast<std::size_t>(r)].capacity(t.phase) >=
            t.demand) {
          eligible[g][static_cast<std::size_t>(r)] = true;
        }
      };
      if (t.candidates.empty()) {
        for (std::size_t r = 0; r < resources_.size(); ++r) {
          mark(static_cast<CpResourceIndex>(r));
        }
      } else {
        for (CpResourceIndex r : t.candidates) mark(r);
      }
    }
    for (std::size_t g = 0; g < eligible.size(); ++g) {
      std::sort(pinned_at[g].begin(), pinned_at[g].end());
      if (std::adjacent_find(pinned_at[g].begin(), pinned_at[g].end()) !=
          pinned_at[g].end()) {
        return "affinity group " + std::to_string(g) +
               ": two pinned members share a resource";
      }
      const auto hosts = static_cast<int>(
          std::count(eligible[g].begin(), eligible[g].end(), true));
      if (members[g] > hosts) {
        return "affinity group " + std::to_string(g) + ": " +
               std::to_string(members[g]) + " members but only " +
               std::to_string(hosts) + " eligible resources";
      }
    }
  }

  // The combined precedence graph (user edges + per-job map->reduce
  // barriers, the latter via one virtual node per job) must be acyclic.
  if (num_precedences_ > 0) {
    const std::size_t n = tasks_.size();
    const std::size_t total = n + jobs_.size();
    std::vector<std::vector<std::size_t>> adj(total);
    std::vector<int> indeg(total, 0);
    auto add_edge = [&](std::size_t u, std::size_t v) {
      adj[u].push_back(v);
      ++indeg[v];
    };
    for (std::size_t ti = 0; ti < n; ++ti) {
      for (CpTaskIndex p : preds_[ti]) {
        add_edge(static_cast<std::size_t>(p), ti);
      }
    }
    for (std::size_t ji = 0; ji < jobs_.size(); ++ji) {
      const std::size_t barrier = n + ji;
      for (CpTaskIndex m : jobs_[ji].map_tasks) {
        add_edge(static_cast<std::size_t>(m), barrier);
      }
      for (CpTaskIndex r : jobs_[ji].reduce_tasks) {
        add_edge(barrier, static_cast<std::size_t>(r));
      }
    }
    std::vector<std::size_t> queue;
    for (std::size_t v = 0; v < total; ++v) {
      if (indeg[v] == 0) queue.push_back(v);
    }
    std::size_t processed = 0;
    while (processed < queue.size()) {
      const std::size_t u = queue[processed++];
      for (std::size_t v : adj[u]) {
        if (--indeg[v] == 0) queue.push_back(v);
      }
    }
    if (processed != total) return "precedence graph has a cycle";
  }
  return "";
}

}  // namespace mrcp::cp
