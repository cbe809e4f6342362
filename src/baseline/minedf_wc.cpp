#include "baseline/minedf_wc.h"

#include <algorithm>

#include "baseline/aria_estimator.h"
#include "common/check.h"
#include "common/stopwatch.h"

namespace mrcp::baseline {

namespace {

/// Build a phase's dispatch queue in the configured order and precompute
/// the suffix statistics used by remaining_stats().
void build_queue(MinEdfWcScheduler::PhaseQueue& queue, const Job& job,
                 TaskType type, TaskDispatchOrder order) {
  const std::size_t begin = type == TaskType::kMap ? 0 : job.num_map_tasks();
  const std::size_t count =
      type == TaskType::kMap ? job.num_map_tasks() : job.num_reduce_tasks();
  queue.order.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    queue.order.push_back(static_cast<int>(begin + i));
  }
  if (order == TaskDispatchOrder::kLpt) {
    std::stable_sort(queue.order.begin(), queue.order.end(), [&](int a, int b) {
      return job.task(static_cast<std::size_t>(a)).exec_time >
             job.task(static_cast<std::size_t>(b)).exec_time;
    });
  }
  queue.suffix_sum.assign(count + 1, Time{0});
  queue.suffix_max.assign(count + 1, Time{0});
  for (std::size_t i = count; i > 0; --i) {
    const Time d =
        job.task(static_cast<std::size_t>(queue.order[i - 1])).exec_time;
    queue.suffix_sum[i - 1] = queue.suffix_sum[i] + d;
    queue.suffix_max[i - 1] = std::max(queue.suffix_max[i], d);
  }
}

}  // namespace

bool MinEdfWcScheduler::edf_before(const EdfEntry& a, const EdfEntry& b) {
  if (a.deadline != b.deadline) return a.deadline < b.deadline;
  return a.id < b.id;
}

void MinEdfWcScheduler::PhaseQueue::requeue(int task_index, Time duration) {
  MRCP_CHECK_MSG(head > 0, "requeue without a prior pop");
  --head;
  order[head] = task_index;
  suffix_sum[head] = suffix_sum[head + 1] + duration;
  suffix_max[head] = std::max(suffix_max[head + 1], duration);
}

PhaseStats MinEdfWcScheduler::PhaseQueue::remaining_stats(Time now) const {
  PhaseStats stats;
  stats.sum = suffix_sum[head];
  stats.max = suffix_max[head];
  stats.count = static_cast<std::int64_t>(pending());
  for (Time end : running_ends) {
    if (end > now) stats.add(end - now);
  }
  return stats;
}

MinEdfWcScheduler::MinEdfWcScheduler(const Cluster& cluster, LaunchFn launch,
                                     MinEdfConfig config)
    : cluster_(cluster),
      launch_(std::move(launch)),
      config_(config),
      free_map_(cluster.total_map_slots()),
      free_reduce_(cluster.total_reduce_slots()),
      avail_map_(cluster.total_map_slots()),
      avail_reduce_(cluster.total_reduce_slots()) {
  MRCP_CHECK(launch_ != nullptr);
}

void MinEdfWcScheduler::handle_resource_down(int map_slots, int reduce_slots) {
  MRCP_CHECK(map_slots >= 0 && reduce_slots >= 0);
  ++stats_.resource_down_events;
  avail_map_ -= map_slots;
  avail_reduce_ -= reduce_slots;
  MRCP_CHECK_MSG(avail_map_ >= 0 && avail_reduce_ >= 0,
                 "more slots failed than the cluster has");
  // Busy slots on the failed resource are subtracted here too; each of
  // their tasks departs via handle_task_killed (or finishes at this very
  // tick), which adds the slot back — restoring free = avail - running.
  free_map_ -= map_slots;
  free_reduce_ -= reduce_slots;
}

void MinEdfWcScheduler::handle_resource_up(int map_slots, int reduce_slots) {
  MRCP_CHECK(map_slots >= 0 && reduce_slots >= 0);
  ++stats_.resource_up_events;
  avail_map_ += map_slots;
  avail_reduce_ += reduce_slots;
  free_map_ += map_slots;
  free_reduce_ += reduce_slots;
}

void MinEdfWcScheduler::handle_task_killed(JobId job, int task_index,
                                           Time planned_end, Time now) {
  auto it = jobs_.find(job);
  MRCP_CHECK_MSG(it != jobs_.end(), "killed task of unknown job");
  JobRun& run = it->second;
  const Task& task = run.job.task(static_cast<std::size_t>(task_index));
  MRCP_CHECK_MSG(planned_end > now, "killed task had already ended");
  auto drop_exact_end = [planned_end](std::vector<Time>& ends) {
    for (std::size_t i = 0; i < ends.size(); ++i) {
      if (ends[i] == planned_end) {
        ends[i] = ends.back();
        ends.pop_back();
        return;
      }
    }
    MRCP_CHECK_MSG(false, "killed task not among running ends");
  };
  if (task.type == TaskType::kMap) {
    MRCP_CHECK(run.running_maps > 0);
    --run.running_maps;
    drop_exact_end(run.maps.running_ends);
    run.maps.requeue(task_index, task.exec_time);
    ++free_map_;
  } else {
    MRCP_CHECK(run.running_reduces > 0);
    --run.running_reduces;
    drop_exact_end(run.reduces.running_ends);
    run.reduces.requeue(task_index, task.exec_time);
    ++free_reduce_;
  }
  ++stats_.tasks_requeued;
}

void MinEdfWcScheduler::submit(const Job& job, Time now) {
  MRCP_CHECK_MSG(validate_job(job).empty(), "submitted job is invalid");
  MRCP_CHECK_MSG(jobs_.find(job.id) == jobs_.end(), "duplicate job id");
  ++stats_.jobs_submitted;
  JobRun run;
  build_queue(run.maps, job, TaskType::kMap, config_.task_order);
  build_queue(run.reduces, job, TaskType::kReduce, config_.task_order);
  run.maps_unfinished = static_cast<int>(run.maps.pending());
  run.job = job;
  JobRun& stored = jobs_.emplace(job.id, std::move(run)).first->second;
  const EdfEntry entry{job.deadline, job.id, &stored};
  edf_.insert(std::lower_bound(edf_.begin(), edf_.end(), entry, edf_before),
              entry);
  dispatch(now);
}

void MinEdfWcScheduler::on_task_finished(JobId job, int task_index, Time now) {
  auto it = jobs_.find(job);
  MRCP_CHECK_MSG(it != jobs_.end(), "task finished for unknown job");
  JobRun& run = it->second;
  const Task& task = run.job.task(static_cast<std::size_t>(task_index));
  auto drop_one_end = [now](std::vector<Time>& ends) {
    // Remove one entry ending at/before now (the finished task's).
    for (std::size_t i = 0; i < ends.size(); ++i) {
      if (ends[i] <= now) {
        ends[i] = ends.back();
        ends.pop_back();
        return;
      }
    }
    ends.pop_back();  // fallback; should not happen with exact DES times
  };
  if (task.type == TaskType::kMap) {
    MRCP_CHECK(run.running_maps > 0);
    --run.running_maps;
    --run.maps_unfinished;
    drop_one_end(run.maps.running_ends);
    ++free_map_;
  } else {
    MRCP_CHECK(run.running_reduces > 0);
    --run.running_reduces;
    drop_one_end(run.reduces.running_ends);
    ++free_reduce_;
  }
  if (run.finished()) {
    ++stats_.jobs_completed;
    const EdfEntry entry{run.job.deadline, job, &run};
    const auto pos =
        std::lower_bound(edf_.begin(), edf_.end(), entry, edf_before);
    MRCP_CHECK(pos != edf_.end() && pos->run == &run);
    edf_.erase(pos);
    jobs_.erase(it);
  }
  dispatch(now);
}

Time MinEdfWcScheduler::next_eligible_time(Time now) const {
  Time next = kNoTime;
  for (const auto& [id, run] : jobs_) {
    if (run.job.earliest_start > now) {
      if (next == kNoTime || run.job.earliest_start < next) {
        next = run.job.earliest_start;
      }
    }
  }
  return next;
}

bool MinEdfWcScheduler::launch_task(JobRun& run, int task_index, Time now) {
  const Task& task = run.job.task(static_cast<std::size_t>(task_index));
  // The driver owns slot-to-resource mapping: it returns the actual
  // (speed-scaled) end, or kNoTime when no eligible slot exists for the
  // task's placement constraints.
  const Time end = launch_(run.job.id, task_index, now, now + task.exec_time);
  if (end == kNoTime) return false;
  MRCP_CHECK_MSG(end > now, "driver returned a non-positive task duration");
  if (task.type == TaskType::kMap) {
    MRCP_CHECK(free_map_ > 0);
    --free_map_;
    ++run.running_maps;
    run.maps.running_ends.push_back(end);
  } else {
    MRCP_CHECK(free_reduce_ > 0);
    --free_reduce_;
    ++run.running_reduces;
    run.reduces.running_ends.push_back(end);
  }
  ++stats_.tasks_launched;
  return true;
}

SlotProfile MinEdfWcScheduler::target_profile(const JobRun& run,
                                              Time now) const {
  if (config_.allocation == AllocationPolicy::kMaximal) {
    // Plain EDF: grab everything; the EDF pass order is the only
    // prioritization.
    return SlotProfile{avail_map_, avail_reduce_, true};
  }
  // Remaining work = pending tasks plus the residual of running tasks;
  // ignoring the running residual would make the estimator think a busy
  // slot can immediately serve pending work. The estimator is capped by
  // the currently-up slot pool (clamped to 1 during a total-phase outage;
  // grants are bounded by the free counters anyway, so nothing launches
  // then).
  return minimal_slot_profile(run.maps.remaining_stats(now),
                              run.reduces.remaining_stats(now), now,
                              run.job.deadline, std::max(1, avail_map_),
                              std::max(1, avail_reduce_), config_.bound);
}

void MinEdfWcScheduler::launch_from(JobRun& run, PhaseQueue& queue, int count,
                                    Time now) {
  // A refusal (placement-constrained task with no eligible free slot) is
  // stashed and re-queued after the phase's launches — re-queuing inline
  // would pop/refuse the same head task forever.
  std::vector<int> refused;  // allocates only on a refusal
  for (int k = 0; k < count; ++k) {
    const int ti = queue.pop_front();
    if (!launch_task(run, ti, now)) refused.push_back(ti);
  }
  // Reverse re-queue restores the original dispatch order.
  for (auto it = refused.rbegin(); it != refused.rend(); ++it) {
    queue.requeue(*it, run.job.task(static_cast<std::size_t>(*it)).exec_time);
    ++stats_.tasks_refused;
  }
}

void MinEdfWcScheduler::dispatch(Time now) {
  Stopwatch timer;
  ++stats_.dispatches;

  // Pass 1 (MinEDF): grant each job, in EDF order, the extra slots its
  // minimal profile demands beyond what it already runs.
  // Pass 2 (WC): hand remaining slots to EDF-first jobs with pending work.
  grants_.assign(edf_.size(), Grant{});
  int free_m = free_map_;
  int free_r = free_reduce_;

  for (std::size_t i = 0; i < edf_.size(); ++i) {
    const JobRun& run = *edf_[i].run;
    if (run.job.earliest_start > now) continue;  // not yet eligible (AR)
    const int pending_m = static_cast<int>(run.maps.pending());
    const int pending_r =
        run.reduces_eligible() ? static_cast<int>(run.reduces.pending()) : 0;
    // Each grant is clamped to the job's pending tasks and the free
    // slots, so a job that can be granted neither phase needs no profile.
    if ((pending_m > 0 && free_m > 0) || (pending_r > 0 && free_r > 0)) {
      const SlotProfile prof = target_profile(run, now);
      Grant& grant = grants_[i];
      grant.maps = std::max(
          0, std::min({prof.map_slots - run.running_maps, pending_m, free_m}));
      free_m -= grant.maps;
      grant.reduces = std::max(
          0, std::min({prof.reduce_slots - run.running_reduces, pending_r,
                       free_r}));
      free_r -= grant.reduces;
    }
    if (free_m == 0 && free_r == 0) break;
  }

  for (std::size_t i = 0; i < edf_.size(); ++i) {
    if (free_m == 0 && free_r == 0) break;
    const JobRun& run = *edf_[i].run;
    if (run.job.earliest_start > now) continue;
    Grant& grant = grants_[i];
    const int extra_m =
        std::min(free_m, static_cast<int>(run.maps.pending()) - grant.maps);
    if (extra_m > 0) {
      grant.maps += extra_m;
      free_m -= extra_m;
    }
    if (run.reduces_eligible()) {
      const int extra_r = std::min(
          free_r, static_cast<int>(run.reduces.pending()) - grant.reduces);
      if (extra_r > 0) {
        grant.reduces += extra_r;
        free_r -= extra_r;
      }
    }
  }

  // Launch the granted tasks in EDF order, each job's in its dispatch
  // order.
  for (std::size_t i = 0; i < edf_.size(); ++i) {
    const Grant grant = grants_[i];
    if (grant.maps == 0 && grant.reduces == 0) continue;
    JobRun& run = *edf_[i].run;
    launch_from(run, run.maps, grant.maps, now);
    launch_from(run, run.reduces, grant.reduces, now);
  }

  stats_.total_sched_seconds += timer.elapsed_seconds();
}

}  // namespace mrcp::baseline
