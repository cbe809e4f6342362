#include "sim/cluster_sim.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <utility>

#include "baseline/minedf_wc.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "des/simulation.h"
#include "sim/sim_internal.h"

namespace mrcp::sim {

namespace internal {

std::vector<JobRecord> make_records(const Workload& workload) {
  std::vector<JobRecord> records(workload.jobs.size());
  for (const Job& job : workload.jobs) {
    // validate_workload guarantees dense in-order ids; keep the bound
    // explicit so a caller bypassing validation fails loudly, not UB.
    MRCP_CHECK_MSG(
        job.id >= 0 && static_cast<std::size_t>(job.id) < records.size(),
        "job id out of range (ids must be dense)");
    JobRecord& r = records[static_cast<std::size_t>(job.id)];
    r.id = job.id;
    r.arrival = job.arrival_time;
    r.earliest_start = job.earliest_start;
    r.deadline = job.deadline;
  }
  return records;
}

}  // namespace internal

namespace {
using internal::make_records;
}  // namespace

std::string validate_execution(const Workload& workload,
                               const std::vector<ExecutedTask>& executed,
                               const std::vector<ExecutedTask>& killed,
                               const std::vector<DownInterval>& downtime) {
  // Every task of every job executed successfully exactly once (killed
  // attempts are extra occupancy on top, never a completion).
  std::vector<std::size_t> first_task(workload.jobs.size() + 1, 0);
  for (std::size_t j = 0; j < workload.jobs.size(); ++j) {
    first_task[j + 1] = first_task[j] + workload.jobs[j].num_tasks();
  }
  if (executed.size() != first_task.back()) {
    return "executed " + std::to_string(executed.size()) +
           " tasks, expected " + std::to_string(first_task.back());
  }
  const Cluster& cluster = workload.cluster;

  // Downtime intervals, grouped per resource.
  std::vector<std::vector<const DownInterval*>> down_by_res(
      static_cast<std::size_t>(cluster.size()));
  for (const DownInterval& d : downtime) {
    if (d.resource < 0 || d.resource >= cluster.size()) {
      return "downtime interval with bad resource";
    }
    if (d.end != kNoTime && d.end <= d.start) {
      return "downtime interval with non-positive length";
    }
    down_by_res[static_cast<std::size_t>(d.resource)].push_back(&d);
  }

  MRCP_CHECK(executed.size() + killed.size() <=
             std::numeric_limits<std::uint32_t>::max());
  std::vector<ScheduleRow> rows;
  rows.reserve(executed.size() + killed.size());
  // row_of[first_task[job] + task] = row of that task's successful run;
  // `unrun` until that run is seen.
  const auto unrun = static_cast<std::uint32_t>(executed.size());
  std::vector<std::uint32_t> row_of(executed.size(), unrun);
  for (std::size_t i = 0; i < executed.size() + killed.size(); ++i) {
    const bool was_killed = i >= executed.size();
    const ExecutedTask& et =
        was_killed ? killed[i - executed.size()] : executed[i];
    const auto fail = [&](const std::string& what) {
      return (was_killed ? "killed attempt job " : "job ") +
             std::to_string(et.job) + " task " +
             std::to_string(et.task_index) + ": " + what;
    };
    if (et.job < 0 ||
        static_cast<std::size_t>(et.job) >= workload.jobs.size()) {
      return fail("unknown job");
    }
    const Job& job = workload.jobs[static_cast<std::size_t>(et.job)];
    if (et.task_index < 0 ||
        static_cast<std::size_t>(et.task_index) >= job.num_tasks()) {
      return fail("bad task index");
    }
    if (et.resource < 0 || et.resource >= cluster.size()) {
      return fail("bad resource");
    }
    const Task& task = job.task(static_cast<std::size_t>(et.task_index));
    const Resource& host = cluster.resource(et.resource);
    if (!host.admits(task)) {
      return fail("ran outside its candidate resources or racks");
    }
    // An uninterrupted run lasts the task's exec time scaled by the host's
    // speed factor — a fast machine must finish early, a slow one late.
    const Time run_time = host.scaled_duration(task.exec_time);
    const auto& downs = down_by_res[static_cast<std::size_t>(et.resource)];
    ScheduleRow& row = rows.emplace_back(
        schedule_row(job, et.task_index, et.resource, et.start, et.end));
    if (was_killed) {
      // Partial occupancy ending exactly at a failure of its resource. It
      // holds capacity — a slot lost mid-task was still a slot held — but
      // orders nothing, and is exempt from anti-affinity: a kill releases
      // the host, so the re-run may land where a failed sibling attempt
      // once sat.
      if (et.end < et.start) return fail("negative attempt length");
      if (et.end - et.start >= run_time) {
        return fail("attempt ran to completion yet counts as killed");
      }
      if (std::none_of(downs.begin(), downs.end(), [&](const DownInterval* d) {
            return d->start == et.end;
          })) {
        return fail("kill time matches no failure of its resource");
      }
      row.affinity_group = -1;
      row.order = 0;
      continue;
    }
    std::uint32_t& slot = row_of[first_task[static_cast<std::size_t>(et.job)] +
                                 static_cast<std::size_t>(et.task_index)];
    if (slot != unrun) return fail("executed twice");
    slot = static_cast<std::uint32_t>(i);
    if (et.end - et.start != run_time) {
      return fail("wrong duration for the host's speed");
    }
    // Unlike a plan or a CP solution, an execution has no started-task
    // exemption: every task, maps and reduces alike, starts at s_j or later.
    if (et.start < job.earliest_start) return fail("started before s_j");
    for (const DownInterval* d : downs) {
      const Time down_end = d->end == kNoTime ? kMaxTime : d->end;
      if (et.start < down_end && d->start < et.end) {
        return fail("ran during downtime of resource " +
                    std::to_string(et.resource));
      }
    }
  }

  // Workflow edges (user-specified DAG): every endpoint ran exactly once.
  std::vector<RowEdge> edges;
  for (std::size_t j = 0; j < workload.jobs.size(); ++j) {
    const std::size_t first = first_task[j];
    for (const auto& [before, after] : workload.jobs[j].precedences) {
      edges.push_back({row_of[first + static_cast<std::size_t>(before)],
                       row_of[first + static_cast<std::size_t>(after)]});
    }
  }
  return check_schedule(rows, cluster.capacity_table(), edges);
}

std::string validate_execution(const Workload& workload,
                               const std::vector<ExecutedTask>& executed) {
  return validate_execution(workload, executed, {}, {});
}

SimMetrics simulate_minedf(const Workload& workload,
                           const baseline::MinEdfConfig& config,
                           const SimOptions& options) {
  MRCP_CHECK_MSG(validate_workload(workload).empty(), "invalid workload");
  // MinEDF-WC is a two-phase slot scheduler; it has no notion of
  // user-specified workflow DAGs (only MRCP-RM's CP model does).
  for (const Job& j : workload.jobs) {
    MRCP_CHECK_MSG(j.precedences.empty(),
                   "MinEDF-WC does not support workflow precedences");
  }
  const FaultConfig& faults = options.faults;
  {
    const std::string fault_err = faults.validate();
    MRCP_CHECK_MSG(fault_err.empty(), fault_err.c_str());
  }

  SimMetrics metrics;
  Workload straggled;
  const Workload* active_workload = &workload;
  if (faults.stragglers_enabled()) {
    straggled = workload;
    metrics.failure.straggler_tasks = apply_stragglers(straggled, faults);
    active_workload = &straggled;
  }
  const Workload& w = *active_workload;

  des::Simulation des;
  FaultInjector injector(w.cluster.size(), faults, cluster_racks(w.cluster));
  metrics.records = make_records(w);
  std::vector<std::size_t> remaining(w.jobs.size());
  std::size_t total_tasks = 0;
  for (const Job& job : w.jobs) {
    remaining[static_cast<std::size_t>(job.id)] = job.num_tasks();
    total_tasks += job.num_tasks();
  }
  std::vector<ExecutedTask> executed;
  executed.reserve(total_tasks);
  std::size_t jobs_left = w.jobs.size();

  baseline::MinEdfWcScheduler* sched_ptr = nullptr;
  des::EventHandle eligibility_wakeup;
  Time eligibility_at = kNoTime;

  // Resource identity does not influence MinEDF-WC decisions (slots are
  // interchangeable), but executed intervals are mapped onto real slots
  // so validate_execution stays meaningful for the baseline too.
  struct SlotState {
    ResourceId resource;
    Time busy_until;
    bool down = false;
  };
  std::vector<SlotState> map_slots;
  std::vector<SlotState> reduce_slots;
  int top_speed = 0;
  for (const Resource& r : w.cluster.resources()) {
    top_speed = std::max(top_speed, r.speed_permille);
    for (int s = 0; s < r.map_capacity; ++s) map_slots.push_back({r.id, Time{0}, false});
    for (int s = 0; s < r.reduce_capacity; ++s) {
      reduce_slots.push_back({r.id, Time{0}, false});
    }
  }
  // Anti-affinity bookkeeping: resources currently held (running) or
  // permanently burned (completed) by a (job, group)'s members. Kills
  // release their entry; completions never do.
  std::map<std::pair<JobId, int>, std::vector<ResourceId>> group_taken;

  // Running attempts with the slot they occupy, for failure kills. A
  // record is reused through a free list once its attempt ends or is
  // killed, and an end event captures only its record's index, so that
  // callback fits std::function's inline buffer: a launch allocates
  // nothing. Records are not keyed by slot: MinEDF-WC may relaunch a slot
  // at the tick its occupant ends, before that occupant's end event fires.
  struct RunningTask {
    JobId job = kNoJob;  ///< kNoJob: the record is free
    int task = -1;
    bool is_map = false;
    std::size_t slot = 0;
    Time start = kNoTime;
    Time end = kNoTime;
    des::EventHandle end_event;
  };
  std::vector<RunningTask> running;
  std::vector<std::uint32_t> free_running;
  auto slot_of = [&](const RunningTask& rt) -> SlotState& {
    return (rt.is_map ? map_slots : reduce_slots)[rt.slot];
  };
  auto release_running = [&](std::uint32_t idx) {
    running[idx].job = kNoJob;
    free_running.push_back(idx);
  };

  auto on_eligible = [&] {
    eligibility_at = kNoTime;
    sched_ptr->wake(des.now());
  };
  auto update_eligibility_wakeup = [&]() {
    if (sched_ptr == nullptr) return;
    const Time next = sched_ptr->next_eligible_time(des.now());
    if (next == eligibility_at) return;
    if (eligibility_wakeup.pending()) des.cancel(eligibility_wakeup);
    eligibility_at = next;
    if (next == kNoTime) return;
    eligibility_wakeup = des.schedule_at(std::max(next, des.now()),
                                         [&on_eligible] { on_eligible(); });
  };

  auto on_end = [&](std::uint32_t idx) {
    const RunningTask& rt = running[idx];
    const JobId job_id = rt.job;
    const int task_index = rt.task;
    executed.push_back(ExecutedTask{job_id, task_index, slot_of(rt).resource,
                                    rt.start, rt.end});
    release_running(idx);
    const auto ji = static_cast<std::size_t>(job_id);
    MRCP_CHECK(remaining[ji] > 0);
    if (--remaining[ji] == 0) {
      JobRecord& record = metrics.records[ji];
      finish_job_record(record, des.now());
      if (record.late && record.failure_affected) {
        ++metrics.failure.jobs_late_failure_affected;
      }
      MRCP_CHECK(jobs_left > 0);
      if (--jobs_left == 0) injector.stop(des);
    }
    sched_ptr->on_task_finished(job_id, task_index, des.now());
    update_eligibility_wakeup();
  };

  baseline::MinEdfWcScheduler sched(
      w.cluster,
      [&](JobId job_id, int task_index, Time start, Time base_end) -> Time {
        (void)base_end;
        const Job& job = w.jobs[static_cast<std::size_t>(job_id)];
        const Task& task = job.task(static_cast<std::size_t>(task_index));
        const bool is_map = task.type == TaskType::kMap;
        auto& slots = is_map ? map_slots : reduce_slots;
        // Eligible slot search: placement constraints first, then prefer
        // the fastest host, then the lowest slot index — which reduces to
        // the plain first-free-slot scan on a homogeneous, unconstrained
        // cluster.
        std::vector<ResourceId>* taken = nullptr;
        if (task.affinity_group >= 0) {
          taken = &group_taken[{job_id, task.affinity_group}];
        }
        auto eligible = [&](ResourceId r) {
          return w.cluster.resource(r).admits(task) &&
                 (taken == nullptr ||
                  std::find(taken->begin(), taken->end(), r) == taken->end());
        };
        std::size_t slot = slots.size();
        int best_speed = -1;
        for (std::size_t i = 0; i < slots.size(); ++i) {
          const SlotState& s = slots[i];
          if (s.down || s.busy_until > start) continue;
          if (!eligible(s.resource)) continue;
          const int speed = w.cluster.resource(s.resource).speed_permille;
          if (speed > best_speed) {
            best_speed = speed;
            slot = i;
            // No later slot is faster, and a tie keeps the lower index.
            if (speed == top_speed) break;
          }
        }
        if (slot == slots.size()) {
          // The free-slot counters guarantee *some* slot is free, so only
          // a placement-constrained task may be refused here.
          MRCP_CHECK_MSG(task.placement_constrained(),
                         "MinEDF-WC launched beyond available capacity");
          return kNoTime;
        }
        const ResourceId res = slots[slot].resource;
        const Time end =
            start + w.cluster.resource(res).scaled_duration(task.exec_time);
        slots[slot].busy_until = end;
        if (taken != nullptr) taken->push_back(res);
        std::uint32_t idx;
        if (free_running.empty()) {
          idx = static_cast<std::uint32_t>(running.size());
          running.emplace_back();
        } else {
          idx = free_running.back();
          free_running.pop_back();
        }
        RunningTask& rt = running[idx];
        rt = RunningTask{job_id, task_index, is_map, slot, start, end, {}};
        rt.end_event = des.schedule_at(end, [&on_end, idx] { on_end(idx); });
        return end;
      },
      config);
  sched_ptr = &sched;

  auto on_resource_down = [&](ResourceId r, Time t) {
    for (SlotState& s : map_slots) {
      if (s.resource == r) s.down = true;
    }
    for (SlotState& s : reduce_slots) {
      if (s.resource == r) s.down = true;
    }
    const Resource& res = w.cluster.resource(r);
    sched.handle_resource_down(res.map_capacity, res.reduce_capacity);
    // Kill the attempts running on r, in (job, task) order; a task that
    // ends exactly at t is a normal completion (its end event fires later
    // this tick).
    std::vector<std::uint32_t> victims;
    for (std::uint32_t i = 0; i < running.size(); ++i) {
      const RunningTask& rt = running[i];
      if (rt.job != kNoJob && rt.end > t && slot_of(rt).resource == r) {
        victims.push_back(i);
      }
    }
    std::sort(victims.begin(), victims.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return std::make_pair(running[a].job, running[a].task) <
                       std::make_pair(running[b].job, running[b].task);
              });
    for (const std::uint32_t idx : victims) {
      RunningTask& rt = running[idx];
      des.cancel(rt.end_event);
      slot_of(rt).busy_until = t;
      const JobId job_id = rt.job;
      const int task_index = rt.task;
      metrics.killed.push_back(ExecutedTask{job_id, task_index, r, rt.start, t});
      ++metrics.failure.tasks_killed;
      metrics.failure.wasted_ticks += t - rt.start;
      metrics.records[static_cast<std::size_t>(job_id)].failure_affected = true;
      sched.handle_task_killed(job_id, task_index, rt.end, t);
      // A killed attempt releases its anti-affinity hold: the re-run may
      // land anywhere its live siblings do not sit.
      const Task& killed_task = w.jobs[static_cast<std::size_t>(job_id)].task(
          static_cast<std::size_t>(task_index));
      if (killed_task.affinity_group >= 0) {
        auto& taken = group_taken[{job_id, killed_task.affinity_group}];
        const auto pos = std::find(taken.begin(), taken.end(), r);
        MRCP_CHECK(pos != taken.end());
        taken.erase(pos);
      }
      release_running(idx);
    }
    sched.wake(t);
    update_eligibility_wakeup();
  };
  auto on_resource_up = [&](ResourceId r, Time t) {
    for (SlotState& s : map_slots) {
      if (s.resource == r) s.down = false;
    }
    for (SlotState& s : reduce_slots) {
      if (s.resource == r) s.down = false;
    }
    const Resource& res = w.cluster.resource(r);
    sched.handle_resource_up(res.map_capacity, res.reduce_capacity);
    sched.wake(t);
    update_eligibility_wakeup();
  };
  injector.start(des, on_resource_down, on_resource_up);

  auto on_arrival = [&](const Job& job) {
    sched.submit(job, des.now());
    update_eligibility_wakeup();
  };
  for (const Job& job : w.jobs) {
    des.schedule_at(job.arrival_time,
                    [&on_arrival, &job] { on_arrival(job); });
  }

  des.run();

  for (std::size_t ji = 0; ji < remaining.size(); ++ji) {
    MRCP_CHECK_MSG(remaining[ji] == 0, "job did not finish under MinEDF-WC");
  }
  metrics.total_sched_seconds = sched.stats().total_sched_seconds;
  metrics.rm_invocations = sched.stats().dispatches;
  metrics.downtime = injector.downtime();
  metrics.failure.resource_failures = injector.failures();
  metrics.failure.resource_repairs = injector.repairs();
  metrics.failure.rack_bursts = injector.rack_bursts();

  if (options.validate_execution) {
    const Stopwatch validate;
    const std::string err =
        validate_execution(w, executed, metrics.killed, metrics.downtime);
    metrics.validate_wall_seconds = validate.elapsed_seconds();
    MRCP_CHECK_MSG(err.empty(), err.c_str());
  }
  metrics.executed = std::move(executed);
  return metrics;
}

}  // namespace mrcp::sim
