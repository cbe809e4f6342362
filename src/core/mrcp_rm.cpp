#include "core/mrcp_rm.h"

#include <algorithm>
#include <utility>

#include <cmath>

#include "common/check.h"
#include "common/log.h"
#include "common/stopwatch.h"
#include "core/fallback_scheduler.h"
#include "core/journal.h"
#include "core/matchmaker.h"
#include "core/model_builder.h"
#include "cp/audit.h"

namespace mrcp {

MrcpRm::MrcpRm(Cluster cluster, MrcpConfig config)
    : cluster_(std::move(cluster)), config_(std::move(config)) {
  MRCP_CHECK(cluster_.size() >= 1);
  pristine_cluster_ = cluster_;
  down_.assign(static_cast<std::size_t>(cluster_.size()), 0);
}

std::vector<PlannedTask> MrcpRm::handle_resource_down(ResourceId resource,
                                                      Time now) {
  MRCP_CHECK(resource >= 0 && resource < cluster_.size());
  const auto ri = static_cast<std::size_t>(resource);
  MRCP_CHECK_MSG(down_[ri] == 0, "resource failed twice without repair");
  down_[ri] = 1;
  ++stats_.resource_down_events;
  dirty_ = true;
  if (journal_ != nullptr) {
    journal_append(encode_resource_down_event(resource, now));
  }
  cluster_.set_resource_capacity(resource, 0, 0);
  // A fully-down cluster is survivable: park_unplaceable() parks every
  // live job until a repair restores capacity (pre-degradation code
  // aborted here — see docs/degraded_mode.md).
  // Any assignment still running or planned on the failed resource
  // becomes unassigned work; assignments that already ended stay and are
  // swept as completed by the next reschedule().
  std::vector<PlannedTask> reset;
  for (auto& [id, st] : active_) {
    for (std::size_t ti = 0; ti < st.assignments.size(); ++ti) {
      if (st.completed[ti]) continue;
      Assignment& as = st.assignments[ti];
      if (as.assigned() && as.resource == resource && as.end > now) {
        PlannedTask pt;
        pt.job = id;
        pt.task_index = static_cast<int>(ti);
        pt.type = st.job.task(ti).type;
        pt.resource = as.resource;
        pt.start = as.start;
        pt.end = as.end;
        pt.started = as.start <= now;
        reset.push_back(pt);
        as = Assignment{};
        ++stats_.tasks_reset_by_failure;
        // The job lost work to the failure: it must be re-solved, not
        // frozen, by the next incremental invocation.
        dirty_jobs_.insert(id);
      }
    }
  }
  return reset;
}

void MrcpRm::handle_resource_up(ResourceId resource, Time now) {
  MRCP_CHECK(resource >= 0 && resource < cluster_.size());
  (void)now;
  const auto ri = static_cast<std::size_t>(resource);
  MRCP_CHECK_MSG(down_[ri] != 0, "repair of a resource that is not down");
  down_[ri] = 0;
  ++stats_.resource_up_events;
  dirty_ = true;
  if (journal_ != nullptr) {
    journal_append(encode_resource_up_event(resource, now));
  }
  // A repair can unblock parked work: parked jobs join the dirty set so
  // the next incremental invocation re-attempts them (reschedule() also
  // folds parked_ in defensively — see the comment there).
  dirty_jobs_.insert(parked_.begin(), parked_.end());
  const Resource& base = pristine_cluster_.resource(resource);
  cluster_.set_resource_capacity(resource, base.map_capacity,
                                 base.reduce_capacity);
}

void MrcpRm::submit(const Job& job, Time now) {
  MRCP_CHECK_MSG(validate_job(job).empty(), "submitted job is invalid");
  MRCP_CHECK_MSG(active_.find(job.id) == active_.end(), "duplicate job id");
  ++stats_.jobs_submitted;
  if (journal_ != nullptr) journal_append(encode_submit_event(job, now));

  if (config_.defer_future_jobs &&
      job.earliest_start - config_.deferral_window > now) {
    deferred_.emplace(job.earliest_start - config_.deferral_window, job);
    return;
  }
  // Overload backpressure (docs/degraded_mode.md): while invocations run
  // degraded, hold new arrivals in the deferral queue — a streak-scaled
  // delay lets a burst amortize into one recovery solve instead of
  // triggering a doomed full re-solve per arrival. Never taken on the
  // healthy path (streak 0), so default behaviour is unchanged.
  if (config_.degrade_backpressure && degraded_streak_ > 0) {
    // Saturating fold: an extreme configured hold (or a hold near the
    // time horizon) clamps to kMaxTime instead of wrapping into the past.
    const Time hold = saturating_mul(
        config_.backpressure_hold,
        static_cast<std::int64_t>(std::min<std::uint64_t>(degraded_streak_, 8)));
    deferred_.emplace(saturating_add(now, hold), job);
    ++stats_.jobs_backpressured;
    return;
  }
  JobState st;
  st.job = job;
  st.completed.assign(job.num_tasks(), 0);
  st.assignments.assign(job.num_tasks(), Assignment{});
  dirty_jobs_.insert(job.id);
  active_.emplace(job.id, std::move(st));
  dirty_ = true;
}

void MrcpRm::mark_dirty(JobId id) {
  MRCP_CHECK_MSG(active_.count(id) != 0, "mark_dirty of a non-active job");
  dirty_jobs_.insert(id);
  dirty_ = true;
}

Time MrcpRm::next_deferred_release() const {
  Time next = deferred_.empty() ? kNoTime : deferred_.begin()->first;
  if (park_retry_at_ != kNoTime && (next == kNoTime || park_retry_at_ < next)) {
    next = park_retry_at_;
  }
  return next;
}

void MrcpRm::release_deferred(Time now) {
  while (!deferred_.empty() && deferred_.begin()->first <= now) {
    Job job = std::move(deferred_.begin()->second);
    deferred_.erase(deferred_.begin());
    if (journal_ != nullptr) journal_append(encode_release_event(job.id, now));
    JobState st;
    st.completed.assign(job.num_tasks(), 0);
    st.assignments.assign(job.num_tasks(), Assignment{});
    st.job = std::move(job);
    const JobId id = st.job.id;
    dirty_jobs_.insert(id);
    active_.emplace(id, std::move(st));
    dirty_ = true;
  }
}

void MrcpRm::sweep_completed(Time now) {
  for (auto it = active_.begin(); it != active_.end();) {
    JobState& st = it->second;
    bool all_done = true;
    Time completion;
    for (std::size_t ti = 0; ti < st.completed.size(); ++ti) {
      if (st.completed[ti]) {
        completion = std::max(completion, st.assignments[ti].end);
        continue;
      }
      const Assignment& as = st.assignments[ti];
      // Paper Table 2 line 10: end <= now means the task finished.
      if (as.assigned() && as.start <= now && as.end <= now) {
        st.completed[ti] = 1;
        completion = std::max(completion, as.end);
      } else {
        all_done = false;
      }
    }
    if (all_done) {
      ++stats_.jobs_completed;
      if (completion > st.job.deadline) ++stats_.jobs_completed_late;
      if (journal_ != nullptr) {
        journal_append(encode_completion_event(it->first, completion));
      }
      // Dirty-set invariant: dirty_jobs_ ⊆ active jobs. A completed
      // job's placements leave the boundary by dropping out of the live
      // set — the remaining frozen assignments stay feasible (capacity
      // only got freer), so completion dirties nothing else.
      dirty_jobs_.erase(it->first);
      it = active_.erase(it);
      // The live set shrank: a degraded-streak skip must not republish
      // the stale plan past this point.
      dirty_ = true;
    } else {
      ++it;
    }
  }
}

std::vector<LiveJob> MrcpRm::collect_live_jobs(Time now,
                                               bool freeze_all_planned) {
  std::vector<LiveJob> live;
  live.reserve(active_.size());
  for (const auto& [id, st] : active_) {
    // Freezing is per job — jobs outside the dirty set form the frozen
    // boundary, dirty jobs are re-solved from free. A clean job is only
    // sound to freeze when every non-completed task still has an
    // assignment and every planned-but-unstarted one sits on an up
    // resource; anything else means the dirty-set bookkeeping missed an
    // event, so the job is promoted to dirty (counted — the audit tests
    // assert this safety net never fires).
    bool job_freeze = freeze_all_planned || dirty_jobs_.count(id) == 0;
    if (job_freeze && !freeze_all_planned) {
      for (std::size_t ti = 0; ti < st.job.num_tasks(); ++ti) {
        if (st.completed[ti]) continue;
        const Assignment& as = st.assignments[ti];
        const bool sound =
            as.assigned() &&
            (as.start <= now ||
             down_[static_cast<std::size_t>(as.resource)] == 0);
        if (!sound) {
          job_freeze = false;
          dirty_jobs_.insert(id);
          ++stats_.dirty_promotions;
          break;
        }
      }
    }
    LiveJob lj;
    lj.id = id;
    // Table 2 lines 1-4: an earliest start time in the past becomes `now`.
    lj.effective_earliest_start = std::max(st.job.earliest_start, now);
    lj.deadline = st.job.deadline;
    // Resources permanently burned per anti-affinity group: a *completed*
    // member's host is off-limits to every live sibling, but the
    // completed task itself is no longer in the model to enforce that —
    // compile the exclusion into each live member instead.
    std::map<int, std::vector<ResourceId>> burned;
    for (std::size_t ti = 0; ti < st.job.num_tasks(); ++ti) {
      if (!st.completed[ti]) continue;
      const int group = st.job.task(ti).affinity_group;
      if (group < 0) continue;
      const ResourceId host = st.assignments[ti].resource;
      auto& list = burned[group];
      if (std::find(list.begin(), list.end(), host) == list.end()) {
        list.push_back(host);
      }
    }
    for (std::size_t ti = 0; ti < st.job.num_tasks(); ++ti) {
      if (st.completed[ti]) continue;
      const Task& task = st.job.task(ti);
      LiveTask lt;
      lt.task_index = static_cast<int>(ti);
      lt.type = task.type;
      lt.exec_time = task.exec_time;
      lt.res_req = task.res_req;
      lt.net_demand = task.net_demand;
      lt.candidates = task.candidates;
      lt.racks = task.racks;
      lt.affinity_group = task.affinity_group;
      if (task.affinity_group >= 0) {
        const auto bit = burned.find(task.affinity_group);
        if (bit != burned.end()) lt.anti_affinity_exclude = bit->second;
      }
      const Assignment& as = st.assignments[ti];
      // Freezing never pins a planned assignment onto a down resource:
      // handle_resource_down resets those, so one surviving here would
      // be a stale-plan resurrection — treat the task as free instead.
      const bool frozen =
          job_freeze && as.assigned() &&
          down_[static_cast<std::size_t>(as.resource)] == 0;
      if (as.assigned() && (as.start <= now || frozen)) {
        // Running: pinned (Table 2 lines 11-12). Planned-but-unstarted
        // tasks of frozen jobs (the kDirtyOnly boundary, and every job in
        // the degraded-mode retry rungs) are frozen in place too.
        lt.started = true;
        lt.resource = as.resource;
        lt.start = as.start;
      }
      lj.tasks.push_back(lt);
    }
    MRCP_CHECK(!lj.tasks.empty());  // fully-completed jobs were swept
    // Workflow precedences: edges whose predecessor (or successor)
    // completed are already satisfied (the executed end lies in the
    // past); only live-live edges constrain the new plan.
    for (const auto& [before, after] : st.job.precedences) {
      if (st.completed[static_cast<std::size_t>(before)] ||
          st.completed[static_cast<std::size_t>(after)]) {
        continue;
      }
      lj.precedences.emplace_back(before, after);
    }
    // Per-job freezing never needs the demotion fixpoint: a frozen
    // (clean) job has *every* live task marked started, so no frozen task
    // can have a free predecessor, and a dirty job has no frozen tasks at
    // all. The fixpoint below serves the whole-model freeze of the
    // degraded-mode retry rungs.
    if (freeze_all_planned) {
      // A frozen assignment is only sound while every predecessor of the
      // task is still accounted for. When a failure resets a map (or a
      // workflow predecessor) to free, the dependent's old start time
      // assumed a completion that no longer exists — keeping it pinned
      // would let the plan run a reduce before its maps. Demote such
      // dependents back to free, to fixpoint (demotions cascade along
      // precedence chains). Tasks that actually started are never
      // demoted: a started task's predecessors all completed, and
      // completed tasks are never reset.
      std::map<int, std::size_t> by_flat;
      for (std::size_t i = 0; i < lj.tasks.size(); ++i) {
        by_flat.emplace(lj.tasks[i].task_index, i);
      }
      auto really_started = [&](const LiveTask& lt) {
        return lt.started &&
               st.assignments[static_cast<std::size_t>(lt.task_index)].start <=
                   now;
      };
      bool changed = true;
      while (changed) {
        changed = false;
        bool any_free_map = false;
        for (const LiveTask& lt : lj.tasks) {
          any_free_map |= lt.type == TaskType::kMap && !lt.started;
        }
        for (LiveTask& lt : lj.tasks) {
          if (!lt.started || really_started(lt)) continue;
          bool free_pred = any_free_map && lt.type == TaskType::kReduce;
          for (const auto& [before, after] : lj.precedences) {
            if (after != lt.task_index) continue;
            const auto bit = by_flat.find(before);
            free_pred |= bit != by_flat.end() && !lj.tasks[bit->second].started;
          }
          if (free_pred) {
            lt.started = false;
            lt.resource = kNoResource;
            lt.start = kNoTime;
            changed = true;
          }
        }
      }
    }
    live.push_back(std::move(lj));
  }
  return live;
}

namespace {

/// Is `r` (by id) within the task's placement constraints — candidate
/// list, rack locality, and resources burned by completed anti-affinity
/// siblings?
bool placement_allows(const Cluster& cluster, const LiveTask& lt,
                      ResourceId r) {
  if (!lt.candidates.empty() &&
      std::find(lt.candidates.begin(), lt.candidates.end(), r) ==
          lt.candidates.end()) {
    return false;
  }
  if (!lt.racks.empty()) {
    const int rack = cluster.resource(r).rack;
    if (std::find(lt.racks.begin(), lt.racks.end(), rack) == lt.racks.end()) {
      return false;
    }
  }
  return std::find(lt.anti_affinity_exclude.begin(),
                   lt.anti_affinity_exclude.end(),
                   r) == lt.anti_affinity_exclude.end();
}

/// Can `r` host `lt` at all: capacity, links, placement constraints.
bool resource_hosts(const Cluster& cluster, const LiveTask& lt, ResourceId r,
                    bool links_constrained) {
  const Resource& res = cluster.resource(r);
  if (res.capacity(lt.type) < lt.res_req) return false;
  if (lt.net_demand > 0 && links_constrained &&
      res.net_capacity < lt.net_demand) {
    return false;
  }
  return placement_allows(cluster, lt, r);
}

/// Mirror of Model::validate()'s per-task fit check against a concrete
/// cluster: can some resource host the task at all?
bool task_fits_somewhere(const Cluster& cluster, const LiveTask& lt,
                         bool links_constrained) {
  for (ResourceId r = 0; r < cluster.size(); ++r) {
    if (resource_hosts(cluster, lt, r, links_constrained)) return true;
  }
  return false;
}

/// Hall-style necessary condition for a job's anti-affinity groups: the
/// union of eligible hosts across a group's live members must be at
/// least the member count, or no pairwise-distinct placement exists.
/// (Started members are eligible only where they already run.) This is a
/// park trigger, not a completeness proof — the CP search settles the
/// rest.
bool affinity_groups_satisfiable(const Cluster& cluster, const LiveJob& lj,
                                 bool links_constrained) {
  std::map<int, std::pair<int, std::vector<ResourceId>>> groups;
  for (const LiveTask& lt : lj.tasks) {
    if (lt.affinity_group < 0) continue;
    auto& [members, hosts] = groups[lt.affinity_group];
    ++members;
    auto add_host = [&hosts = hosts](ResourceId r) {
      if (std::find(hosts.begin(), hosts.end(), r) == hosts.end()) {
        hosts.push_back(r);
      }
    };
    if (lt.started) {
      add_host(lt.resource);
      continue;
    }
    for (ResourceId r = 0; r < cluster.size(); ++r) {
      if (resource_hosts(cluster, lt, r, links_constrained)) add_host(r);
    }
  }
  for (const auto& [group, entry] : groups) {
    if (entry.second.size() < static_cast<std::size_t>(entry.first)) {
      return false;
    }
  }
  return true;
}

/// Keep only a job's started tasks (and the precedence edges among
/// them); the rest is parked. Returns false when nothing remains.
bool keep_started_tasks_only(LiveJob& lj) {
  std::vector<LiveTask> kept;
  for (const LiveTask& lt : lj.tasks) {
    if (lt.started) kept.push_back(lt);
  }
  if (kept.empty()) return false;
  std::vector<std::pair<int, int>> kept_edges;
  auto present = [&](int task_index) {
    for (const LiveTask& lt : kept) {
      if (lt.task_index == task_index) return true;
    }
    return false;
  };
  for (const auto& [before, after] : lj.precedences) {
    if (present(before) && present(after)) kept_edges.emplace_back(before, after);
  }
  lj.tasks = std::move(kept);
  lj.precedences = std::move(kept_edges);
  return true;
}

}  // namespace

void MrcpRm::park_unplaceable(std::vector<LiveJob>& live, Time now) {
  parked_.clear();
  const bool cur_links = cluster_.links_constrained();
  const bool pristine_links = pristine_cluster_.links_constrained();
  for (auto it = live.begin(); it != live.end();) {
    LiveJob& lj = *it;
    bool park = false;
    for (const LiveTask& lt : lj.tasks) {
      if (lt.started) continue;  // occupies capacity it already holds
      if (task_fits_somewhere(cluster_, lt, cur_links)) continue;
      // Unplaceable against the current (post-failure) capacities. If
      // even the pristine cluster cannot host it, no amount of repair
      // will help — that is a workload error and stays fatal, exactly
      // like the pre-degradation model-validate abort.
      MRCP_CHECK_MSG(task_fits_somewhere(pristine_cluster_, lt, pristine_links),
                     "task demand exceeds every resource in the cluster");
      park = true;
      break;
    }
    // Each task fitting *somewhere* is not enough under anti-affinity:
    // the group needs pairwise-distinct hosts. Same fatal-vs-park split
    // as above, against the pristine cluster.
    if (!park && !affinity_groups_satisfiable(cluster_, lj, cur_links)) {
      MRCP_CHECK_MSG(
          affinity_groups_satisfiable(pristine_cluster_, lj, pristine_links),
          "anti-affinity group larger than its eligible resource pool");
      park = true;
    }
    if (!park) {
      ++it;
      continue;
    }
    // Park the whole job's unstarted work (a partial park would split
    // the job's map->reduce barrier between two planning regimes): its
    // planned-but-unstarted assignments are released so they cannot
    // double-book capacity against the model, and only started tasks —
    // which hold real slots the solver must plan around — stay live.
    parked_.insert(lj.id);
    ++stats_.jobs_parked;
    JobState& st = active_.at(lj.id);
    for (std::size_t ti = 0; ti < st.assignments.size(); ++ti) {
      if (st.completed[ti]) continue;
      Assignment& as = st.assignments[ti];
      if (as.assigned() && as.start > now) as = Assignment{};
    }
    it = keep_started_tasks_only(lj) ? it + 1 : live.erase(it);
  }
}

void MrcpRm::strip_parked(std::vector<LiveJob>& live) const {
  for (auto it = live.begin(); it != live.end();) {
    if (parked_.count(it->id) == 0) {
      ++it;
      continue;
    }
    it = keep_started_tasks_only(*it) ? it + 1 : live.erase(it);
  }
}

DegradationCounts MrcpRm::degradation_counts() const {
  DegradationCounts counts = ledger_.counts();
  counts.jobs_backpressured = stats_.jobs_backpressured;
  return counts;
}

const Plan& MrcpRm::reschedule(Time now) {
  Stopwatch timer;
  ++stats_.invocations;

  release_deferred(now);
  sweep_completed(now);

  InvocationRecord rec;
  rec.sim_time = now;
  // Every exit publishes the plan and closes the invocation's record.
  auto finish = [&]() -> const Plan& {
    publish_plan(now);
    rec.epoch = plan_.epoch;
    rec.wall_seconds = timer.elapsed_seconds();
    ledger_.record(rec);
    stats_.total_sched_seconds += timer.elapsed_seconds();
    return plan_;
  };

  // The scope's only effect: which jobs are re-solved from free. Paper
  // Table 2 re-maps every unstarted task, i.e. every active job is
  // dirty; the incremental scope keeps the tracked set.
  if (config_.replan_scope == ReplanScope::kAllUnstarted) {
    for (const auto& entry : active_) {
      dirty_jobs_.insert(dirty_jobs_.end(), entry.first);
    }
  }
  // Parked jobs always rejoin the dirty set before the fast-path check:
  // every invocation re-attempts them, so a job parked in a previous
  // epoch whose blocking resource has since recovered re-enters the
  // solve instead of staying stripped, and an empty-dirty skip can never
  // starve parked work.
  dirty_jobs_.insert(parked_.begin(), parked_.end());

  // Backpressure short-circuit: while degraded, an invocation whose live
  // set did not change since the last full pass (arrivals were
  // backpressure-deferred, nothing completed early, no fault activity)
  // republishes the current plan instead of burning another doomed
  // solve. Gated on the streak, so the healthy path never takes it.
  if (degraded_streak_ > 0 && !dirty_ && parked_.empty()) {
    rec.outcome = InvocationOutcome::kSkipped;
    return finish();
  }

  // Fast path: an empty dirty set means every unstarted task of every
  // active job still holds a sound assignment — the current plan is
  // re-published unchanged (a repair with nothing parked lands here:
  // re-optimizing clean jobs onto the recovered capacity is a quality
  // opportunity the incremental scope deliberately forgoes). Never taken
  // under kAllUnstarted, where every active job is dirty.
  if (dirty_jobs_.empty() && !active_.empty()) {
    rec.outcome = InvocationOutcome::kSkipped;
    return finish();
  }
  dirty_ = false;
  park_retry_at_ = kNoTime;

  std::vector<LiveJob> live =
      collect_live_jobs(now, /*freeze_all_planned=*/false);
  park_unplaceable(live, now);
  rec.parked_jobs = parked_.size();
  rec.dirty_jobs = dirty_jobs_.size();
  for (const LiveJob& lj : live) {
    for (const LiveTask& lt : lj.tasks) {
      if (lt.started && lt.start > now) ++rec.frozen_tasks;
    }
  }

  InvocationOutcome outcome =
      parked_.empty() ? InvocationOutcome::kIdle : InvocationOutcome::kParked;

  if (!live.empty()) {
    // Separation (§V.D) needs unit demands; fall back to the direct
    // formulation when any task requires more than one slot.
    bool unit_demands = true;
    bool links_active = false;
    const bool cluster_constrains_links = cluster_.links_constrained();
    bool placement_active = false;
    std::size_t live_tasks = 0;
    for (const LiveJob& lj : live) {
      live_tasks += lj.tasks.size();
      for (const LiveTask& lt : lj.tasks) {
        unit_demands &= lt.res_req == 1;
        links_active |= lt.net_demand > 0 && cluster_constrains_links;
        placement_active |= !lt.candidates.empty() || !lt.racks.empty() ||
                            lt.affinity_group >= 0 ||
                            !lt.anti_affinity_exclude.empty();
      }
    }
    stats_.max_live_tasks = std::max(stats_.max_live_tasks,
                                     static_cast<std::uint64_t>(live_tasks));
    // The §V.D combined-resource abstraction is only sound when every
    // non-running task is re-placed: frozen *future* tasks (the
    // kDirtyOnly frozen boundary) fragment concrete slots, and an
    // interval can fit the summed capacity while fitting no single slot.
    // A live set with a frozen boundary therefore solves the direct
    // per-resource model — which is cheap there, since only the dirty
    // jobs' tasks are free.
    // ... and per-resource link constraints likewise cannot be expressed
    // on the combined resource — nor can per-machine speeds (unless they
    // are uniform, which the combined resource then carries) or any
    // placement constraint, which names concrete machines.
    const bool combined =
        config_.use_separation && unit_demands && !links_active &&
        !placement_active && cluster_.uniform_speed_permille() > 0 &&
        rec.frozen_tasks == 0;

    BuiltModel built = combined ? build_combined_model(cluster_, live)
                                : build_direct_model(cluster_, live);
    // After park_unplaceable() every free task has a capable host, so a
    // validation failure here is an internal invariant violation, not a
    // runtime condition — it stays fatal.
    const std::string model_err = built.model.validate();
    MRCP_CHECK_MSG(model_err.empty(), model_err.c_str());

    cp::SolveParams params = config_.solve;
    // Vary the LNS seed across invocations, deterministically.
    params.seed = config_.solve.seed + plan_.epoch * 0x9E3779B9ULL;
    // One absolute watchdog bounds the whole invocation; each attempt
    // additionally gets 64x its own soft budget. The margins are wide on
    // purpose: a first descent legitimately overshoots the soft budget
    // (nothing interrupts a descent that has no solution yet), and the
    // watchdog must only catch runaways — with default budgets no search
    // ever aborts, even on a loaded machine, and the solve is bit-for-bit
    // the pre-degradation one. Shrinking the budget shrinks the watchdog
    // proportionally, which is how near-zero budgets force degradation.
    const double invocation_budget_s =
        config_.solver_deadline_s > 0.0 ? config_.solver_deadline_s
                                        : config_.solve.time_limit_s * 256.0;
    Deadline invocation_deadline(invocation_budget_s);
    Deadline primary_deadline(std::min(
        invocation_deadline.remaining_seconds(), params.time_limit_s * 64.0));
    params.hard_deadline = &primary_deadline;

    auto account = [&](const cp::SolveResult& r) {
      ++stats_.solve_attempts;
      ++rec.attempts;
      rec.last_status = r.status;
      rec.portfolio_members_run = r.stats.portfolio_members_run;
      rec.portfolio_stopped_at_bound = r.stats.portfolio_stopped_at_bound;
      rec.winning_member = r.stats.winning_member;
      rec.repeat_descents_skipped += r.stats.repeat_descents_skipped;
      rec.solve_wall_seconds += r.wall_seconds;
      stats_.solve_wall_seconds += r.wall_seconds;
      stats_.solver_decisions += r.stats.decisions;
      stats_.solver_fails += r.stats.fails;
    };

    cp::SolveResult result = cp::solve(built.model, params);
    account(result);

    cp::Solution chosen;
    const BuiltModel* solved = &built;
    BuiltModel shrunk_built;  // owns the frozen model when a retry rung wins

    if (result.best.valid) {
      outcome = InvocationOutcome::kCpPrimary;
      chosen = std::move(result.best);
    } else {
      // Escalation ladder (docs/degraded_mode.md): the hard watchdog cut
      // every descent short. Shrink the model by freezing all planned
      // assignments in place (LNS-style neighbourhood fixing), double
      // the soft budget per rung, seed each rung with the EDF fallback's
      // schedule for that model, and finally publish the fallback plan
      // outright.
      MRCP_CHECK_MSG(config_.fallback_enabled, "solver returned no solution");
      cp::Solution parachute;  // EDF seed returned by an aborted retry
      BuiltModel parachute_built;
      for (int retry = 1;
           retry <= config_.max_solve_retries && !invocation_deadline.expired();
           ++retry) {
        // The combined-resource abstraction is unsound with frozen
        // fragments (see the frozen-boundary comment above), so retries
        // always solve the direct model.
        std::vector<LiveJob> frozen = collect_live_jobs(now, true);
        strip_parked(frozen);
        if (frozen.empty()) break;
        BuiltModel shrunk = build_direct_model(cluster_, frozen);
        const std::string frozen_err = shrunk.model.validate();
        MRCP_CHECK_MSG(frozen_err.empty(), frozen_err.c_str());

        cp::SolveParams retry_params = params;
        // ldexp, not (1 << retry): a configured max_solve_retries >= 31
        // would make the int shift UB. The exponent is additionally
        // capped — doublings beyond 2^40 are already far past any
        // invocation watchdog, so the budget simply saturates there.
        retry_params.time_limit_s =
            std::ldexp(config_.solve.time_limit_s, std::min(retry, 40));
        retry_params.improvement_fails = 0;  // descent-only: cheapest
        retry_params.lns_iterations = 0;     // complete schedule wins
        Deadline retry_deadline(
            std::min(invocation_deadline.remaining_seconds(),
                     retry_params.time_limit_s * 64.0));
        retry_params.hard_deadline = &retry_deadline;

        const cp::Solution seed = fallback_schedule(shrunk.model);
        cp::SolveResult rr = cp::solve(shrunk.model, retry_params,
                                       seed.valid ? &seed : nullptr);
        account(rr);
        if (rr.best.valid && rr.stats.solutions > 0) {
          // The rung completed a descent of its own (at worst tying the
          // EDF incumbent, never worse — warm starts only prune).
          outcome = InvocationOutcome::kCpRetry;
          chosen = std::move(rr.best);
          shrunk_built = std::move(shrunk);
          solved = &shrunk_built;
          break;
        }
        if (rr.best.valid && !parachute.valid) {
          // Aborted again: rr.best is exactly the EDF seed. Keep it as a
          // minimal-churn fallback plan while the budget escalates.
          parachute = std::move(rr.best);
          parachute_built = std::move(shrunk);
        }
      }
      if (!chosen.valid) {
        outcome = InvocationOutcome::kFallback;
        ++stats_.fallback_plans;
        if (parachute.valid) {
          // Frozen-model EDF plan: respects every previous placement.
          chosen = std::move(parachute);
          shrunk_built = std::move(parachute_built);
          solved = &shrunk_built;
        } else {
          // Full-model EDF plan — deterministic, never times out.
          chosen = fallback_schedule(built.model);
          if (!chosen.valid && built.model.num_affinity_groups() > 0) {
            // The greedy EDF pass can paint itself into a corner under
            // anti-affinity (it never backtracks a group member off a
            // contended host). A first-solution CP search without a hard
            // deadline is complete — the soft budget never interrupts a
            // descent that has no solution yet — so it settles
            // feasibility outright.
            cp::SolveParams complete = params;
            complete.improvement_fails = 0;
            complete.lns_iterations = 0;
            complete.portfolio = {cp::JobOrdering::kEdf};
            complete.hard_deadline = nullptr;
            cp::SolveResult cr = cp::solve(built.model, complete);
            account(cr);
            chosen = std::move(cr.best);
          }
          MRCP_CHECK_MSG(chosen.valid,
                         "fallback scheduler failed on a validated model");
        }
      }
    }

    const BuiltModel& bm = *solved;
    // Audit builds always validate (MRCP_AUDIT_ENABLED is a compile-time
    // constant, so the check folds away in default builds), and small
    // models additionally face the brute-force constraint oracle —
    // fallback-produced plans included.
    if (config_.validate_plans || MRCP_AUDIT_ENABLED) {
      const std::string err = validate_solution(bm.model, chosen);
      MRCP_CHECK_MSG(err.empty(), err.c_str());
    }
    MRCP_AUDIT_ONLY({
      if (bm.model.num_tasks() <= cp::audit::kAuditModelSizeLimit) {
        MRCP_AUDIT_CHECK(cp::audit::brute_force_check_solution(bm.model, chosen));
      }
    })

    // Map CP placements back onto cluster resources.
    std::vector<ResourceId> resources(bm.task_refs.size(), kNoResource);
    if (bm.combined) {
      std::vector<MatchItem> items(bm.task_refs.size());
      for (std::size_t i = 0; i < bm.task_refs.size(); ++i) {
        const cp::CpTask& ct = bm.model.task(static_cast<cp::CpTaskIndex>(i));
        const auto& placement = chosen.placements[i];
        MatchItem& item = items[i];
        item.type = ct.phase == cp::Phase::kMap ? TaskType::kMap
                                                : TaskType::kReduce;
        item.start = placement.start;
        item.end = placement.start +
                   bm.model.duration_on(static_cast<cp::CpTaskIndex>(i),
                                        placement.resource);
        item.pinned = ct.pinned;
        if (ct.pinned) {
          const auto& [job_id, task_index] = bm.task_refs[i];
          item.pinned_resource =
              active_.at(job_id)
                  .assignments[static_cast<std::size_t>(task_index)]
                  .resource;
        }
      }
      resources = matchmake(cluster_, items);
    } else {
      for (std::size_t i = 0; i < bm.task_refs.size(); ++i) {
        resources[i] = static_cast<ResourceId>(chosen.placements[i].resource);
      }
    }

    // Commit the new assignments. Durations are resource-scaled: in
    // combined mode the single CP resource carries the cluster's uniform
    // speed, so placements[i].resource is the right scaling source in
    // both modes (matchmade hosts all run at that same speed).
    for (std::size_t i = 0; i < bm.task_refs.size(); ++i) {
      const auto& [job_id, task_index] = bm.task_refs[i];
      Assignment& as =
          active_.at(job_id).assignments[static_cast<std::size_t>(task_index)];
      as.resource = resources[i];
      as.start = chosen.placements[i].start;
      as.end = as.start + bm.model.duration_on(static_cast<cp::CpTaskIndex>(i),
                                               chosen.placements[i].resource);
    }
    rec.live_tasks = bm.model.num_tasks();
  }

  // The invocation consumed the dirty set: every dirty job either got
  // fresh assignments committed above or was parked (and parked jobs
  // re-enter the dirty set at the next invocation's fold).
  dirty_jobs_.clear();

  rec.outcome = outcome;
  const bool degraded = outcome == InvocationOutcome::kCpRetry ||
                        outcome == InvocationOutcome::kFallback ||
                        outcome == InvocationOutcome::kParked ||
                        !parked_.empty();
  degraded_streak_ = degraded ? degraded_streak_ + 1 : 0;
  if (!parked_.empty()) {
    // Saturating: a park_retry_delay near the horizon pins the retry at
    // kMaxTime instead of wrapping negative (and so never waking up).
    park_retry_at_ = saturating_add(now, config_.park_retry_delay);
    if (journal_ != nullptr) {
      journal_append(encode_park_retry_event(park_retry_at_, parked_));
    }
  }

  return finish();
}

void MrcpRm::publish_plan(Time now) {
  ++plan_.epoch;
  plan_.planned_at = now;
  plan_.tasks.clear();
  plan_.parked.clear();
  for (const auto& [id, st] : active_) {
    for (std::size_t ti = 0; ti < st.job.num_tasks(); ++ti) {
      if (st.completed[ti]) continue;
      const Assignment& as = st.assignments[ti];
      if (!as.assigned()) {
        // Only a parked job may publish unassigned work: its unstarted
        // tasks wait for capacity and are listed apart from the plan (the
        // driver cancels their stale events; see docs/degraded_mode.md).
        // Anything else is an internal error.
        MRCP_CHECK_MSG(parked_.count(id) != 0,
                       "unassigned live task outside a parked job");
        plan_.parked.emplace_back(id, static_cast<int>(ti));
        continue;
      }
      PlannedTask pt;
      pt.job = id;
      pt.task_index = static_cast<int>(ti);
      pt.type = st.job.task(ti).type;
      pt.resource = as.resource;
      pt.start = as.start;
      pt.end = as.end;
      pt.started = as.start <= now;
      plan_.tasks.push_back(pt);
    }
  }
  if ((config_.validate_plans || MRCP_AUDIT_ENABLED) && !plan_.tasks.empty()) {
    JobId max_id = 0;
    for (const auto& [id, st] : active_) max_id = std::max(max_id, id);
    std::vector<const Job*> jobs_by_id(static_cast<std::size_t>(max_id) + 1,
                                       nullptr);
    for (const auto& [id, st] : active_) {
      jobs_by_id[static_cast<std::size_t>(id)] = &st.job;
    }
    const std::string err = validate_plan(plan_, cluster_, jobs_by_id);
    MRCP_CHECK_MSG(err.empty(), err.c_str());
  }
  if (journal_ != nullptr) journal_append(encode_plan_event(plan_));
}

void MrcpRm::journal_append(const std::string& payload) {
  if (journal_ == nullptr) return;
  MRCP_CHECK_MSG(journal_->append(payload), journal_->error().c_str());
}

namespace {
// Version 2 dropped the model-cache fingerprint that closed version 1.
constexpr std::uint8_t kRmStateVersion = 2;
}  // namespace

std::string MrcpRm::encode_state() const {
  io::Encoder enc;
  enc.u8(kRmStateVersion);
  enc.u32(static_cast<std::uint32_t>(down_.size()));
  for (const std::uint8_t flag : down_) enc.boolean(flag != 0);
  enc.u32(static_cast<std::uint32_t>(active_.size()));
  for (const auto& [id, st] : active_) {
    // The map key is st.job.id; per-task flag/assignment counts are the
    // job's task count — neither is encoded separately.
    encode_job(enc, st.job);
    for (const std::uint8_t flag : st.completed) enc.boolean(flag != 0);
    for (const Assignment& as : st.assignments) {
      enc.i64(as.resource);
      enc.ticks(as.start);
      enc.ticks(as.end);
    }
  }
  enc.u32(static_cast<std::uint32_t>(deferred_.size()));
  for (const auto& [release_at, job] : deferred_) {
    enc.ticks(release_at);
    encode_job(enc, job);
  }
  encode_plan(enc, plan_);
  encode_mrcp_stats(enc, stats_);
  enc.u32(static_cast<std::uint32_t>(parked_.size()));
  for (const JobId id : parked_) enc.i64(id);
  enc.ticks(park_retry_at_);
  enc.u64(degraded_streak_);
  enc.boolean(dirty_);
  encode_ledger(enc, ledger_);
  enc.u32(static_cast<std::uint32_t>(dirty_jobs_.size()));
  for (const JobId id : dirty_jobs_) enc.i64(id);
  return enc.take();
}

bool MrcpRm::restore_state(std::string_view state, std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  io::Decoder dec(state);
  const std::uint8_t version = dec.u8();
  if (dec.ok() && version != kRmStateVersion) {
    return fail("unsupported RM state version " + std::to_string(version));
  }
  const std::uint32_t num_resources = dec.u32();
  if (dec.ok() && num_resources != static_cast<std::uint32_t>(cluster_.size())) {
    return fail("snapshot cluster has " + std::to_string(num_resources) +
                " resources, this RM has " + std::to_string(cluster_.size()));
  }
  std::vector<std::uint8_t> down(down_.size(), 0);
  for (std::size_t r = 0; r < down.size() && dec.ok(); ++r) {
    down[r] = dec.boolean() ? 1 : 0;
  }
  std::map<JobId, JobState> active;
  const std::uint32_t num_active = dec.u32();
  for (std::uint32_t i = 0; i < num_active && dec.ok(); ++i) {
    JobState st;
    st.job = decode_job(dec);
    st.completed.assign(st.job.num_tasks(), 0);
    st.assignments.assign(st.job.num_tasks(), Assignment{});
    for (std::size_t ti = 0; ti < st.job.num_tasks() && dec.ok(); ++ti) {
      st.completed[ti] = dec.boolean() ? 1 : 0;
    }
    for (std::size_t ti = 0; ti < st.job.num_tasks() && dec.ok(); ++ti) {
      Assignment& as = st.assignments[ti];
      const std::int64_t resource = dec.i64();
      as.resource = static_cast<ResourceId>(resource);
      as.start = dec.ticks();
      as.end = dec.ticks();
    }
    const JobId id = st.job.id;
    if (dec.ok() && !active.emplace(id, std::move(st)).second) {
      return fail("duplicate active job " + std::to_string(id) +
                  " in snapshot");
    }
  }
  std::multimap<Time, Job> deferred;
  const std::uint32_t num_deferred = dec.u32();
  for (std::uint32_t i = 0; i < num_deferred && dec.ok(); ++i) {
    const Time release_at = dec.ticks();
    deferred.emplace(release_at, decode_job(dec));
  }
  Plan plan = decode_plan(dec);
  MrcpStats stats = decode_mrcp_stats(dec);
  std::set<JobId> parked;
  const std::uint32_t num_parked = dec.u32();
  for (std::uint32_t i = 0; i < num_parked && dec.ok(); ++i) {
    parked.insert(static_cast<JobId>(dec.i64()));
  }
  const Time park_retry_at = dec.ticks();
  const std::uint64_t degraded_streak = dec.u64();
  const bool dirty = dec.boolean();
  DegradationLedger ledger = decode_ledger(dec);
  std::set<JobId> dirty_jobs;
  const std::uint32_t num_dirty = dec.u32();
  for (std::uint32_t i = 0; i < num_dirty && dec.ok(); ++i) {
    dirty_jobs.insert(static_cast<JobId>(dec.i64()));
  }
  if (!dec.ok()) return fail("corrupt RM state: " + dec.error());
  if (!dec.done()) {
    return fail("trailing bytes after RM state at byte " +
                std::to_string(dec.offset()));
  }

  down_ = std::move(down);
  for (ResourceId r = 0; r < cluster_.size(); ++r) {
    const Resource& base = pristine_cluster_.resource(r);
    const bool is_down = down_[static_cast<std::size_t>(r)] != 0;
    cluster_.set_resource_capacity(r, is_down ? 0 : base.map_capacity,
                                   is_down ? 0 : base.reduce_capacity);
  }
  active_ = std::move(active);
  deferred_ = std::move(deferred);
  plan_ = std::move(plan);
  stats_ = stats;
  parked_ = std::move(parked);
  park_retry_at_ = park_retry_at;
  degraded_streak_ = degraded_streak;
  dirty_ = dirty;
  ledger_ = std::move(ledger);
  dirty_jobs_ = std::move(dirty_jobs);
  return true;
}

bool MrcpRm::restore(std::string_view snapshot_state,
                     const std::vector<std::string>& journal_suffix,
                     std::string* error) {
  if (!restore_state(snapshot_state, error)) return false;
  // Replay re-executes the real logic, so it must not re-journal; the
  // caller re-attaches (or the sim driver resumes in verify mode).
  Journal* const saved_journal = journal_;
  journal_ = nullptr;
  for (std::size_t i = 0; i < journal_suffix.size(); ++i) {
    JournalEvent event;
    if (!decode_journal_event(journal_suffix[i], &event, error)) {
      journal_ = saved_journal;
      return false;
    }
    switch (event.type) {
      case JournalEventType::kSubmit:
        submit(event.job, event.time);
        break;
      case JournalEventType::kResourceDown:
        handle_resource_down(event.resource, event.time);
        break;
      case JournalEventType::kResourceUp:
        handle_resource_up(event.resource, event.time);
        break;
      case JournalEventType::kPlanPublished: {
        // Inputs were re-applied above; re-running the deterministic
        // solve must re-derive the exact journaled plan.
        reschedule(event.time);
        io::Encoder replayed;
        encode_plan(replayed, plan_);
        io::Encoder journaled;
        encode_plan(journaled, event.plan);
        if (replayed.str() != journaled.str()) {
          if (error != nullptr) {
            *error = "replayed plan diverges from journal record " +
                     std::to_string(i) + " (epoch " +
                     std::to_string(event.plan.epoch) + ")";
          }
          journal_ = saved_journal;
          return false;
        }
        break;
      }
      case JournalEventType::kRelease:
      case JournalEventType::kCompletion:
      case JournalEventType::kParkRetry:
        // Outputs of reschedule(); re-derived by the replayed calls.
        break;
    }
  }
  journal_ = saved_journal;
  return true;
}

}  // namespace mrcp
