#include "cp/search.h"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <sstream>
#include <string>
#include <tuple>

#include "common/stopwatch.h"

namespace mrcp::cp {

const char* job_ordering_name(JobOrdering ordering) {
  switch (ordering) {
    case JobOrdering::kJobId: return "job-id";
    case JobOrdering::kEdf: return "edf";
    case JobOrdering::kLeastLaxity: return "least-laxity";
    case JobOrdering::kFcfs: return "fcfs";
  }
  return "?";
}

std::vector<int> make_job_ranks(const Model& model, JobOrdering ordering) {
  const auto n = model.num_jobs();
  std::vector<CpJobIndex> jobs(n);
  std::iota(jobs.begin(), jobs.end(), 0);

  // Remaining work per job (pinned/completed tasks excluded from the
  // model do not contribute) for the laxity strategy:
  // L_j = d_j - s_j - sum e_t (paper §VI.B).
  std::vector<Time> work(n, Time{0});
  if (ordering == JobOrdering::kLeastLaxity) {
    // Durations are assignment-dependent on heterogeneous clusters; the
    // ranking heuristic uses each task's duration lower bound, which is
    // exact on homogeneous clusters.
    for (std::size_t ti = 0; ti < model.num_tasks(); ++ti) {
      const CpTask& t = model.task(static_cast<CpTaskIndex>(ti));
      work[static_cast<std::size_t>(t.job)] +=
          model.min_duration(static_cast<CpTaskIndex>(ti));
    }
  }

  // Hopeless jobs decide last: a job whose completion lower bound already
  // exceeds its deadline is late in every schedule, so placing its tasks
  // early can only squat on capacity that would save another job (the
  // set-times order is static — an early-ranked hopeless task can never
  // be pushed past a later-ranked one). Only applied when durations are
  // assignment-dependent or anti-affinity is active: on plain homogeneous
  // models the ranking — and therefore every schedule the engine emits —
  // stays bit-identical to the pre-extension solver.
  const bool defer_hopeless =
      model.hetero_speeds() || model.num_affinity_groups() > 0;
  std::vector<std::uint8_t> hopeless(n, 0);
  if (defer_hopeless) {
    for (std::size_t j = 0; j < n; ++j) {
      const auto cj = static_cast<CpJobIndex>(j);
      hopeless[j] = model.completion_lower_bound(cj) > model.job(cj).deadline;
    }
  }

  auto key = [&](CpJobIndex j) -> std::tuple<int, Time, std::int64_t> {
    const CpJob& job = model.job(j);
    const int late = hopeless[static_cast<std::size_t>(j)];
    // Jobs with unset external ids (-1) fall back to the model index so
    // the secondary key is always a total order — otherwise EDF/LLF/FCFS
    // ties would collapse to equal keys and the ranking would depend on
    // stable_sort input order alone.
    const std::int64_t id = job.external_id >= 0 ? job.external_id : j;
    switch (ordering) {
      case JobOrdering::kJobId:
        return {late, Time{0}, id};
      case JobOrdering::kEdf:
        return {late, job.deadline, id};
      case JobOrdering::kLeastLaxity:
        return {late,
                job.deadline - job.earliest_start -
                    work[static_cast<std::size_t>(j)],
                id};
      case JobOrdering::kFcfs:
        return {late, job.earliest_start, id};
    }
    return {0, Time{0}, j};
  };
  std::stable_sort(jobs.begin(), jobs.end(), [&](CpJobIndex a, CpJobIndex b) {
    return key(a) < key(b);
  });

  std::vector<int> rank(n);
  for (std::size_t pos = 0; pos < jobs.size(); ++pos) {
    rank[static_cast<std::size_t>(jobs[pos])] = static_cast<int>(pos);
  }
  return rank;
}

SearchRoot::SearchRoot(const Model& model) : model_(&model) {
  // Profiles for every (resource, phase) pair. Zero-capacity phases get a
  // 1-capacity placeholder that is never used (tasks cannot select them:
  // build_choices filters on capacity >= demand).
  profiles_.reserve(model.num_resources() * 2);
  net_profiles_.reserve(model.num_resources());
  for (const CpResource& r : model.resources()) {
    profiles_.emplace_back(std::max(1, r.map_capacity));
    profiles_.emplace_back(std::max(1, r.reduce_capacity));
    net_profiles_.emplace_back(std::max(1, r.net_capacity));
  }
  links_constrained_ = model.links_constrained();
#if MRCP_AUDIT_ENABLED
  audit_small_ = model.num_tasks() <= audit::kAuditModelSizeLimit;
  audit_profiles_.reserve(model.num_resources() * 2);
  audit_net_profiles_.reserve(model.num_resources());
  for (const CpResource& r : model.resources()) {
    audit_profiles_.emplace_back(std::max(1, r.map_capacity));
    audit_profiles_.emplace_back(std::max(1, r.reduce_capacity));
    audit_net_profiles_.emplace_back(std::max(1, r.net_capacity));
  }
#endif

  placements_.assign(model.num_tasks(), TaskPlacement{});
  fixed_map_end_.assign(model.num_jobs(), Time{0});
  fixed_completion_.assign(model.num_jobs(), Time{0});
  job_late_.assign(model.num_jobs(), 0);

  // Root state: pinned tasks are pre-placed; statically-late jobs are
  // counted from the start (their completion lower bound already exceeds
  // the deadline, so every leaf below the root has them late).
  for (std::size_t ji = 0; ji < model.num_jobs(); ++ji) {
    const CpJob& j = model.job(static_cast<CpJobIndex>(ji));
    fixed_map_end_[ji] = j.earliest_start;
    if (model.completion_lower_bound(static_cast<CpJobIndex>(ji)) > j.deadline) {
      job_late_[ji] = 1;
      ++late_count_;
    }
  }
  auto net_constrained = [&](CpResourceIndex r, const CpTask& t) {
    return t.net_demand > 0 && model.resource(r).net_capacity > 0;
  };
  if (model.num_affinity_groups() > 0) {
    group_use_.assign(static_cast<std::size_t>(model.num_affinity_groups()) *
                          model.num_resources(),
                      0);
  }
  for (std::size_t ti = 0; ti < model.num_tasks(); ++ti) {
    const CpTask& t = model.task(static_cast<CpTaskIndex>(ti));
    if (!t.pinned) continue;
    // Pinned tasks occupy their fixed resource for the duration scaled by
    // THAT machine's speed.
    const Time dur =
        model.duration_on(static_cast<CpTaskIndex>(ti), t.pinned_resource);
    profiles_[static_cast<std::size_t>(t.pinned_resource) * 2 +
              static_cast<std::size_t>(t.phase)]
        .add(t.pinned_start, dur, t.demand);
    if (net_constrained(t.pinned_resource, t)) {
      net_profiles_[static_cast<std::size_t>(t.pinned_resource)].add(
          t.pinned_start, dur, t.net_demand);
    }
    MRCP_AUDIT_ONLY({
      audit_profiles_[static_cast<std::size_t>(t.pinned_resource) * 2 +
                      static_cast<std::size_t>(t.phase)]
          .add(t.pinned_start, dur, t.demand);
      if (net_constrained(t.pinned_resource, t)) {
        audit_net_profiles_[static_cast<std::size_t>(t.pinned_resource)].add(
            t.pinned_start, dur, t.net_demand);
      }
    })
    if (t.affinity_group >= 0) {
      ++group_use_[static_cast<std::size_t>(t.affinity_group) *
                       model.num_resources() +
                   static_cast<std::size_t>(t.pinned_resource)];
    }
    placements_[ti] = TaskPlacement{t.pinned_resource, t.pinned_start};
    const Time end = t.pinned_start + dur;
    const auto ji = static_cast<std::size_t>(t.job);
    if (t.phase == Phase::kMap) {
      fixed_map_end_[ji] = std::max(fixed_map_end_[ji], end);
    }
    fixed_completion_[ji] = std::max(fixed_completion_[ji], end);
    // Lateness of pinned tasks is covered by completion_lower_bound above.
  }

  // Per-job decision segments: each job's free tasks, maps then reduces,
  // each phase in index order (CpJob lists its tasks in index order).
  segment_begin_.reserve(model.num_jobs() + 1);
  segment_split_.reserve(model.num_jobs());
  segment_tasks_.reserve(model.num_tasks());
  for (const CpJob& j : model.jobs()) {
    segment_begin_.push_back(segment_tasks_.size());
    for (CpTaskIndex mt : j.map_tasks) {
      if (!model.task(mt).pinned) segment_tasks_.push_back(mt);
    }
    segment_split_.push_back(segment_tasks_.size());
    for (CpTaskIndex rt : j.reduce_tasks) {
      if (!model.task(rt).pinned) segment_tasks_.push_back(rt);
    }
  }
  segment_begin_.push_back(segment_tasks_.size());

  // User precedences (workflow DAGs): the decision order must fix every
  // predecessor before its successor so earliest starts propagate along
  // edges. The graph (user edges plus the implicit MapReduce barrier —
  // see reset()) is rank-independent, so it is built once here; reset()
  // re-derives each ranking's order as a priority-topological sort over
  // it.
  if (model.num_precedences() > 0) {
    succs_.assign(model.num_tasks(), {});
    indeg_.assign(model.num_tasks(), 0);
    for (CpTaskIndex t = 0; t < static_cast<CpTaskIndex>(model.num_tasks());
         ++t) {
      if (model.task(t).pinned) continue;
      for (CpTaskIndex p : model.predecessors(t)) {
        if (model.task(p).pinned) continue;  // already fixed at the root
        succs_[static_cast<std::size_t>(p)].push_back(t);
        ++indeg_[static_cast<std::size_t>(t)];
      }
    }
    // The implicit MapReduce barrier (all maps before all reduces of a
    // job) is only encoded in the rank-derived preference order, which
    // the topological re-derivation is free to override: a cross-job user
    // edge can otherwise hoist a reduce ahead of its own job's last map,
    // and the reduce would then be placed against a stale fixed map end.
    // Make the barrier explicit so the topo order always respects it.
    for (const CpJob& j : model.jobs()) {
      for (CpTaskIndex mt : j.map_tasks) {
        if (model.task(mt).pinned) continue;
        for (CpTaskIndex rt : j.reduce_tasks) {
          if (model.task(rt).pinned) continue;
          succs_[static_cast<std::size_t>(mt)].push_back(rt);
          ++indeg_[static_cast<std::size_t>(rt)];
        }
      }
    }
  }
}

SetTimesSearch::SetTimesSearch(const SearchRoot& root)
    : root_(root),
      model_(root.model()),
      links_constrained_(root.links_constrained_),
      profiles_(root.profiles_),
      net_profiles_(root.net_profiles_),
#if MRCP_AUDIT_ENABLED
      audit_profiles_(root.audit_profiles_),
      audit_net_profiles_(root.audit_net_profiles_),
      audit_small_(root.audit_small_),
#endif
      placements_(root.placements_),
      fixed_map_end_(root.fixed_map_end_),
      fixed_completion_(root.fixed_completion_),
      job_late_(root.job_late_),
      late_count_(root.late_count_),
      group_use_(root.group_use_) {
}

SetTimesSearch::SetTimesSearch(std::unique_ptr<SearchRoot> owned_root)
    : owned_root_(std::move(owned_root)),
      root_(*owned_root_),
      model_(root_.model()),
      links_constrained_(root_.links_constrained_),
      profiles_(root_.profiles_),
      net_profiles_(root_.net_profiles_),
#if MRCP_AUDIT_ENABLED
      audit_profiles_(root_.audit_profiles_),
      audit_net_profiles_(root_.audit_net_profiles_),
      audit_small_(root_.audit_small_),
#endif
      placements_(root_.placements_),
      fixed_map_end_(root_.fixed_map_end_),
      fixed_completion_(root_.fixed_completion_),
      job_late_(root_.job_late_),
      late_count_(root_.late_count_),
      group_use_(root_.group_use_) {
}

SetTimesSearch::SetTimesSearch(const Model& model, std::vector<int> job_rank,
                               std::vector<std::uint8_t> lpt_within_job)
    : SetTimesSearch(std::make_unique<SearchRoot>(model)) {
  reset(job_rank, lpt_within_job);
}

void SetTimesSearch::reset(const std::vector<int>& job_rank,
                           const std::vector<std::uint8_t>& lpt_within_job) {
  const std::size_t n = model_.num_jobs();
  MRCP_CHECK(job_rank.size() == n);
  MRCP_CHECK(lpt_within_job.empty() || lpt_within_job.size() == n);
  MRCP_AUDIT_ONLY(audit_at_root();)

  // Jobs in rank order. The ranking must be a permutation of 0..n-1:
  // the segments below are concatenated one job per rank.
  job_at_rank_.assign(n, -1);
  for (std::size_t j = 0; j < n; ++j) {
    const int r = job_rank[j];
    const bool in_range = r >= 0 && static_cast<std::size_t>(r) < n;
    const auto slot = static_cast<std::size_t>(r);
    if (!in_range || job_at_rank_[slot] >= 0) {
      const std::string msg =
          "SetTimesSearch::reset: job_rank is not a permutation (job " +
          std::to_string(j) + " has rank " + std::to_string(r) +
          (in_range ? ", also held by job " + std::to_string(job_at_rank_[slot])
                    : ", out of range [0, " + std::to_string(n) + ")") +
          ")";
      MRCP_CHECK_MSG(false, msg.c_str());
    }
    job_at_rank_[slot] = static_cast<CpJobIndex>(j);
  }
  targeted_ = true;

  // Decision order: each job's segment in rank order — maps before
  // reduces (the reduce earliest start needs the fixed map ends), each
  // phase in index order, or longest first where lpt_within_job is set.
  order_.clear();
  for (const CpJobIndex j : job_at_rank_) {
    const auto ji = static_cast<std::size_t>(j);
    const bool lpt = !lpt_within_job.empty() && lpt_within_job[ji] != 0;
    const std::vector<CpTaskIndex>& tasks =
        lpt ? lpt_segments(j) : root_.segment_tasks_;
    order_.insert(order_.end(),
                  tasks.begin() + static_cast<std::ptrdiff_t>(
                                      root_.segment_begin_[ji]),
                  tasks.begin() + static_cast<std::ptrdiff_t>(
                                      root_.segment_begin_[ji + 1]));
  }

  // Re-derive the order as a priority-topological sort over the root's
  // precedence DAG (user edges + map→reduce barrier) that stays as close
  // to the preference order above as the DAG permits.
  if (model_.num_precedences() > 0) {
    topo_position_.assign(model_.num_tasks(), -1);
    for (std::size_t i = 0; i < order_.size(); ++i) {
      topo_position_[static_cast<std::size_t>(order_[i])] = static_cast<int>(i);
    }
    topo_indeg_ = root_.indeg_;
    // Min-heap on preference position.
    auto later = [&](CpTaskIndex a, CpTaskIndex b) {
      return topo_position_[static_cast<std::size_t>(a)] >
             topo_position_[static_cast<std::size_t>(b)];
    };
    topo_heap_.clear();
    for (CpTaskIndex t : order_) {
      if (topo_indeg_[static_cast<std::size_t>(t)] == 0) topo_heap_.push_back(t);
    }
    std::make_heap(topo_heap_.begin(), topo_heap_.end(), later);
    topo_out_.clear();
    topo_out_.reserve(order_.size());
    while (!topo_heap_.empty()) {
      std::pop_heap(topo_heap_.begin(), topo_heap_.end(), later);
      const CpTaskIndex t = topo_heap_.back();
      topo_heap_.pop_back();
      topo_out_.push_back(t);
      for (CpTaskIndex s : root_.succs_[static_cast<std::size_t>(t)]) {
        if (--topo_indeg_[static_cast<std::size_t>(s)] == 0) {
          topo_heap_.push_back(s);
          std::push_heap(topo_heap_.begin(), topo_heap_.end(), later);
        }
      }
    }
    MRCP_CHECK_MSG(topo_out_.size() == order_.size(),
                   "precedence graph has a cycle");
    std::swap(order_, topo_out_);
  }
}

const std::vector<CpTaskIndex>& SetTimesSearch::lpt_segments(CpJobIndex job) {
  if (lpt_ready_.empty()) {
    lpt_ready_.assign(model_.num_jobs(), 0);
    lpt_tasks_ = root_.segment_tasks_;
  }
  const auto ji = static_cast<std::size_t>(job);
  if (lpt_ready_[ji] == 0) {
    // Longest first within each phase, duration ties by task index: a
    // total order, so std::sort needs no stable merge buffer.
    auto longer = [&](CpTaskIndex a, CpTaskIndex b) {
      const Time da = model_.task(a).duration;
      const Time db = model_.task(b).duration;
      return da != db ? da > db : a < b;
    };
    const auto at = [&](std::size_t i) {
      return lpt_tasks_.begin() + static_cast<std::ptrdiff_t>(i);
    };
    std::sort(at(root_.segment_begin_[ji]), at(root_.segment_split_[ji]),
              longer);
    std::sort(at(root_.segment_split_[ji]), at(root_.segment_begin_[ji + 1]),
              longer);
    lpt_ready_[ji] = 1;
  }
  return lpt_tasks_;
}

void SetTimesSearch::restore_root() {
  profiles_ = root_.profiles_;
  net_profiles_ = root_.net_profiles_;
  MRCP_AUDIT_ONLY({
    audit_profiles_ = root_.audit_profiles_;
    audit_net_profiles_ = root_.audit_net_profiles_;
  })
  placements_ = root_.placements_;
  fixed_map_end_ = root_.fixed_map_end_;
  fixed_completion_ = root_.fixed_completion_;
  job_late_ = root_.job_late_;
  late_count_ = root_.late_count_;
  group_use_ = root_.group_use_;
}

Profile& SetTimesSearch::profile(CpResourceIndex r, Phase phase) {
  return profiles_[static_cast<std::size_t>(r) * 2 +
                   static_cast<std::size_t>(phase)];
}

#if MRCP_AUDIT_ENABLED
void SetTimesSearch::audit_slot_query(CpResourceIndex r, Phase phase, Time est,
                                      Time duration, int demand, Time got) {
  if (!audit_small_) return;
  MRCP_AUDIT_CHECK(audit::check_earliest_feasible_answer(profile(r, phase), est,
                                                         duration, demand, got));
  const audit::ReferenceProfile& ref =
      audit_profiles_[static_cast<std::size_t>(r) * 2 +
                      static_cast<std::size_t>(phase)];
  const Time ref_got = ref.earliest_feasible(est, duration, demand);
  if (ref_got != got) {
    std::ostringstream os;
    os << "cumulative audit: slot earliest_feasible(est=" << est
       << ", dur=" << duration << ", demand=" << demand << ") = " << got
       << " but reference sweep says " << ref_got << " on resource " << r;
    MRCP_CHECK_MSG(false, os.str().c_str());
  }
}

void SetTimesSearch::audit_net_query(CpResourceIndex r, Time est, Time duration,
                                     int net_demand, Time got) {
  if (!audit_small_) return;
  Profile& net = net_profiles_[static_cast<std::size_t>(r)];
  MRCP_AUDIT_CHECK(audit::check_earliest_feasible_answer(net, est, duration,
                                                         net_demand, got));
  const audit::ReferenceProfile& ref =
      audit_net_profiles_[static_cast<std::size_t>(r)];
  const Time ref_got = ref.earliest_feasible(est, duration, net_demand);
  if (ref_got != got) {
    std::ostringstream os;
    os << "cumulative audit: net earliest_feasible(est=" << est
       << ", dur=" << duration << ", demand=" << net_demand << ") = " << got
       << " but reference sweep says " << ref_got << " on resource " << r;
    MRCP_CHECK_MSG(false, os.str().c_str());
  }
}

void SetTimesSearch::audit_cross_check(CpResourceIndex r, const CpTask& t) {
  if (!audit_small_) return;
  MRCP_AUDIT_CHECK(audit::check_profile_against_reference(
      profile(r, t.phase),
      audit_profiles_[static_cast<std::size_t>(r) * 2 +
                      static_cast<std::size_t>(t.phase)]));
  if (net_constrained(r, t)) {
    MRCP_AUDIT_CHECK(audit::check_profile_against_reference(
        net_profiles_[static_cast<std::size_t>(r)],
        audit_net_profiles_[static_cast<std::size_t>(r)]));
  }
}

void SetTimesSearch::audit_at_root() const {
  // reset() relies on run() having restored the root state: the
  // mutable state must be exactly the root state.
  MRCP_CHECK_MSG(late_count_ == root_.late_count_,
                 "search reuse audit: late_count diverged from root");
  MRCP_CHECK_MSG(placements_.size() == root_.placements_.size(),
                 "search reuse audit: placement count diverged from root");
  for (std::size_t i = 0; i < placements_.size(); ++i) {
    MRCP_CHECK_MSG(placements_[i].resource == root_.placements_[i].resource &&
                       placements_[i].start == root_.placements_[i].start,
                   "search reuse audit: placements diverged from root");
  }
  MRCP_CHECK_MSG(fixed_map_end_ == root_.fixed_map_end_ &&
                     fixed_completion_ == root_.fixed_completion_ &&
                     job_late_ == root_.job_late_,
                 "search reuse audit: per-job state diverged from root");
  MRCP_CHECK_MSG(group_use_ == root_.group_use_,
                 "search reuse audit: anti-affinity state diverged from root");
  for (std::size_t i = 0; i < profiles_.size(); ++i) {
    MRCP_CHECK_MSG(profiles_[i].to_string() == root_.profiles_[i].to_string(),
                   "search reuse audit: slot profile diverged from root");
  }
  for (std::size_t i = 0; i < net_profiles_.size(); ++i) {
    MRCP_CHECK_MSG(
        net_profiles_[i].to_string() == root_.net_profiles_[i].to_string(),
        "search reuse audit: net profile diverged from root");
  }
}
#endif

bool SetTimesSearch::net_constrained(CpResourceIndex r, const CpTask& t) const {
  return t.net_demand > 0 &&
         model_.resource(r).net_capacity > 0;
}

Time SetTimesSearch::earliest_feasible_on(CpResourceIndex r, const CpTask& t,
                                          Time est, Time duration) {
  Profile& slots = profile(r, t.phase);
  if (!net_constrained(r, t)) {
    const Time s = slots.earliest_feasible(est, duration, t.demand);
    MRCP_AUDIT_ONLY(audit_slot_query(r, t.phase, est, duration, t.demand, s);)
    return s;
  }
  Profile& net = net_profiles_[static_cast<std::size_t>(r)];
  // Fixpoint of the two one-dimensional queries: each pass can only move
  // the start later, and both are finitely supported, so this terminates.
  Time start = est;
  while (true) {
    const Time s1 = slots.earliest_feasible(start, duration, t.demand);
    const Time s2 = net.earliest_feasible(s1, duration, t.net_demand);
    MRCP_AUDIT_ONLY({
      audit_slot_query(r, t.phase, start, duration, t.demand, s1);
      audit_net_query(r, s1, duration, t.net_demand, s2);
    })
    if (s2 == s1) return s1;
    start = s2;
  }
}

void SetTimesSearch::build_choices(CpTaskIndex task, Level& level) {
  const CpTask& t = model_.task(task);
  const CpJob& j = model_.job(t.job);
  const auto ji = static_cast<std::size_t>(t.job);
  Time est = t.phase == Phase::kMap
                 ? j.earliest_start
                 : std::max(j.earliest_start, fixed_map_end_[ji]);
  // User-precedence predecessors are fixed before this task (topological
  // decision order) — propagate their exact ends, scaled by the machine
  // each predecessor was placed on.
  for (CpTaskIndex p : model_.predecessors(task)) {
    const TaskPlacement& pp = placements_[static_cast<std::size_t>(p)];
    MRCP_DCHECK(pp.decided());
    est = std::max(est, pp.start + model_.duration_on(p, pp.resource));
  }

  level.choices.clear();
  auto consider = [&](CpResourceIndex r) {
    const CpResource& res = model_.resource(r);
    if (res.capacity(t.phase) < t.demand) return;
    // In a links-constrained cluster a zero-capacity resource offers no
    // link at all — it is not a valid home for a net-demanding task.
    if (t.net_demand > 0 && links_constrained_ &&
        res.net_capacity < t.net_demand) {
      return;
    }
    // Anti-affinity: a resource already holding a task of this group is
    // not an alternative (the branch simply never exists).
    if (t.affinity_group >= 0 && group_use(t.affinity_group, r) > 0) return;
    level.choices.push_back(
        Choice{r, earliest_feasible_on(r, t, est, model_.duration_on(task, r))});
  };
  if (t.candidates.empty()) {
    for (CpResourceIndex r = 0; r < static_cast<CpResourceIndex>(model_.num_resources());
         ++r) {
      consider(r);
    }
  } else {
    for (CpResourceIndex r : t.candidates) consider(r);
  }
  // A task no resource can host is a dead end, not a crash: the caller
  // backtracks through the empty level (and reports exhaustion at the
  // root). Unreachable for models that pass Model::validate(), which
  // requires a capable candidate per task — kept recoverable so the
  // degraded-mode pipeline can treat it as kInfeasible.
  if (level.choices.empty()) return;
  std::stable_sort(level.choices.begin(), level.choices.end(),
                   [](const Choice& a, const Choice& b) {
                     if (a.start != b.start) return a.start < b.start;
                     return a.resource < b.resource;
                   });

  // Postponed-start branches on the earliest resource: skip past the next
  // profile change(s). This is the "second branch" of set-times search.
  const Choice best = level.choices.front();
  Profile& prof = profile(best.resource, t.phase);
  const Time best_dur = model_.duration_on(task, best.resource);
  Time from = best.start;
  postponed_scratch_.clear();
  for (int k = 0; k < level.postpone_budget; ++k) {
    const Time event = prof.next_event_after(from);
    if (event == kMaxTime) break;
    const Time start = earliest_feasible_on(best.resource, t, event, best_dur);
    if (start <= from) break;
    postponed_scratch_.push_back(Choice{best.resource, start});
    from = start;
  }
  level.choices.insert(level.choices.end(), postponed_scratch_.begin(),
                       postponed_scratch_.end());
}

void SetTimesSearch::apply(CpTaskIndex task, Level& level, const Choice& choice) {
  const CpTask& t = model_.task(task);
  const auto ji = static_cast<std::size_t>(t.job);
  const CpJob& j = model_.job(t.job);

  const Time dur = model_.duration_on(task, choice.resource);
  profile(choice.resource, t.phase).add(choice.start, dur, t.demand);
  if (net_constrained(choice.resource, t)) {
    net_profiles_[static_cast<std::size_t>(choice.resource)].add(
        choice.start, dur, t.net_demand);
  }
  MRCP_AUDIT_ONLY({
    audit_profiles_[static_cast<std::size_t>(choice.resource) * 2 +
                    static_cast<std::size_t>(t.phase)]
        .add(choice.start, dur, t.demand);
    if (net_constrained(choice.resource, t)) {
      audit_net_profiles_[static_cast<std::size_t>(choice.resource)].add(
          choice.start, dur, t.net_demand);
    }
    audit_cross_check(choice.resource, t);
  })
  if (t.affinity_group >= 0) ++group_use(t.affinity_group, choice.resource);
  placements_[static_cast<std::size_t>(task)] =
      TaskPlacement{choice.resource, choice.start};

  level.applied = true;
  level.applied_choice = choice;
  level.prev_fixed_map_end = fixed_map_end_[ji];
  level.prev_fixed_completion = fixed_completion_[ji];
  level.prev_late = job_late_[ji] != 0;

  const Time end = choice.start + dur;
  if (t.phase == Phase::kMap) {
    fixed_map_end_[ji] = std::max(fixed_map_end_[ji], end);
  }
  fixed_completion_[ji] = std::max(fixed_completion_[ji], end);
  if (end > j.deadline && job_late_[ji] == 0) {
    job_late_[ji] = 1;
    ++late_count_;
  }
}

void SetTimesSearch::undo(CpTaskIndex task, Level& level) {
  MRCP_CHECK(level.applied);
  const CpTask& t = model_.task(task);
  const auto ji = static_cast<std::size_t>(t.job);

  const Time dur = model_.duration_on(task, level.applied_choice.resource);
  profile(level.applied_choice.resource, t.phase)
      .remove(level.applied_choice.start, dur, t.demand);
  if (net_constrained(level.applied_choice.resource, t)) {
    net_profiles_[static_cast<std::size_t>(level.applied_choice.resource)]
        .remove(level.applied_choice.start, dur, t.net_demand);
  }
  MRCP_AUDIT_ONLY({
    audit_profiles_[static_cast<std::size_t>(level.applied_choice.resource) * 2 +
                    static_cast<std::size_t>(t.phase)]
        .remove(level.applied_choice.start, dur, t.demand);
    if (net_constrained(level.applied_choice.resource, t)) {
      audit_net_profiles_[static_cast<std::size_t>(
                              level.applied_choice.resource)]
          .remove(level.applied_choice.start, dur, t.net_demand);
    }
    audit_cross_check(level.applied_choice.resource, t);
  })
  if (t.affinity_group >= 0) {
    --group_use(t.affinity_group, level.applied_choice.resource);
  }
  placements_[static_cast<std::size_t>(task)] = TaskPlacement{};

  fixed_map_end_[ji] = level.prev_fixed_map_end;
  fixed_completion_[ji] = level.prev_fixed_completion;
  if (job_late_[ji] != 0 && !level.prev_late) {
    job_late_[ji] = 0;
    --late_count_;
  }
  level.applied = false;
}

Solution SetTimesSearch::run(const SearchLimits& limits, const Solution* incumbent,
                             SearchStats* stats) {
  MRCP_CHECK_MSG(targeted_, "SetTimesSearch::run() before reset()");
  Stopwatch timer;
  SearchStats local_stats;
  SearchStats& st = stats ? *stats : local_stats;
  st = SearchStats{};

  Solution best;
  if (incumbent && incumbent->valid) best = *incumbent;

  // Degenerate case: nothing to decide (all tasks pinned or no tasks).
  if (order_.empty()) {
    Solution sol;
    sol.placements = placements_;
    if (model_.num_tasks() == 0) {
      sol.valid = true;
      sol.job_completion.assign(model_.num_jobs(), Time{0});
      sol.job_late.assign(model_.num_jobs(), 0);
    } else {
      evaluate_solution(model_, sol);
    }
    st.solutions = 1;
    st.exhausted = true;
    if (sol.better_than(best)) best = sol;
    return best;
  }

  // Level storage persists across runs/resets (same thread), so choice
  // vectors keep their capacity and deep backtracks stop reallocating.
  if (levels_.size() < order_.size()) levels_.resize(order_.size());
  for (std::size_t d = 0; d < order_.size(); ++d) {
    levels_[d].postpone_budget = limits.postpone_tries;
    levels_[d].applied = false;
  }
  std::vector<Level>& levels = levels_;

  std::size_t depth = 0;
  bool level_fresh = true;  // does levels[depth] need (re)building?
  bool done = false;

  // The soft budget never interrupts the initial descent: the search
  // must normally return a complete schedule (it is the RM's primary
  // source of one), and the first descent costs only one placement per
  // task. Only the hard watchdog below can cut a descent short.
  auto over_budget = [&]() {
    if (!best.valid) return false;
    return st.fails > limits.max_fails ||
           ((st.decisions & 0xFF) == 0 &&
            timer.elapsed_seconds() > limits.time_limit_s);
  };

  while (!done) {
    // Hard watchdog: unlike the soft budget this aborts even before a
    // first solution exists (the RM's degraded-mode ladder recovers via
    // the EDF fallback scheduler). Checked every 8 decisions so the
    // healthy path pays one null test per iteration.
    if (limits.hard_deadline != nullptr && (st.decisions & 0x7) == 0 &&
        limits.hard_deadline->expired()) {
      st.aborted = true;
      break;
    }

    if (depth == order_.size()) {
      // All tasks fixed: a complete solution.
      Solution sol;
      sol.placements = placements_;
      evaluate_solution(model_, sol);
      ++st.solutions;
      if (sol.better_than(best)) best = sol;
      if (limits.stop_after_first_solution) break;
      // No schedule can beat zero late jobs on the primary objective, and
      // the B&B prune (late_count >= incumbent) would reject every branch
      // anyway; stop rather than burn the fail budget.
      if (best.valid && best.num_late == 0) {
        st.exhausted = true;
        break;
      }
      // Backtrack to search for a strictly better leaf.
      if (depth == 0) break;
      --depth;
      undo(order_[depth], levels[depth]);
      level_fresh = false;
      continue;
    }

    Level& level = levels[depth];
    if (level_fresh) {
      build_choices(order_[depth], level);
      level.next_choice = 0;
    }

    if (level.next_choice >= level.choices.size()) {
      // Exhausted this level: backtrack.
      if (depth == 0) {
        st.exhausted = true;
        break;
      }
      --depth;
      undo(order_[depth], levels[depth]);
      level_fresh = false;
      continue;
    }

    const Choice choice = level.choices[level.next_choice++];
    apply(order_[depth], level, choice);
    ++st.decisions;

    // Branch-and-bound pruning: `late_count_` only grows as more tasks
    // are fixed, so reaching the incumbent's objective kills the branch.
    // The outside cutoff cuts strictly-worse branches only (late_count_
    // must *exceed* it) — see SearchLimits::late_cutoff.
    const bool pruned_local = best.valid && late_count_ >= best.num_late;
    const bool pruned_cutoff =
        !pruned_local && late_count_ > limits.late_cutoff;
    if (pruned_local || pruned_cutoff) {
      ++st.fails;
      undo(order_[depth], level);
      // Keep this level's remaining choices: a rebuild would reset
      // next_choice and re-apply the pruned branch forever.
      level_fresh = false;
      if (pruned_cutoff && limits.stop_after_first_solution) {
        // The descent's eventual solution could only be strictly worse
        // than the solution behind the cutoff, so abort the whole search
        // instead of rerouting to a first solution the cutoff would have
        // changed.
        break;
      }
      if (over_budget()) break;
      continue;  // try next choice at this level
    }

    ++depth;
    level_fresh = true;
    if (over_budget()) break;
  }

  // Back to the root state so the object can be reused: one copy of the
  // root instead of undoing every applied decision one at a time.
  restore_root();

  return best;
}

}  // namespace mrcp::cp
