// Reference copies of the MinEDF-WC baseline in its straightforward form:
// the full ARIA map-slot sweep, with a linear reduce-slot scan per
// map-slot count over its own copy of the estimate, and a dispatch that
// sorts every live job into EDF order and keeps its grants in per-call
// maps. The differential tests in aria_test.cpp and minedf_test.cpp run
// the production code against these on the same inputs and require
// identical answers.
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "baseline/aria_estimator.h"
#include "baseline/minedf_wc.h"
#include "common/check.h"
#include "mapreduce/cluster.h"
#include "mapreduce/job.h"

namespace mrcp::baseline::reference {

/// The ARIA estimate written out from its definition (Verma et al.), so
/// that the reference shares no code with the estimator it checks.
inline Time aria_estimate(const PhaseStats& stats, int slots,
                          AriaBound bound) {
  if (stats.empty()) return Time{0};
  if (bound == AriaBound::kUpper) {
    return ceil_div(stats.sum - stats.max, slots) + stats.max;
  }
  const Time avg = ceil_div(stats.sum, stats.count);
  const Time t_low = ceil_div(stats.sum, slots);
  const Time t_up = ceil_div((stats.count - 1) * avg, slots) + stats.max;
  return (t_low + t_up) / 2;
}

/// Smallest n in [1, max_slots] whose estimate meets `budget`, by linear
/// scan; 0 when none does, when the budget is not positive, or for an
/// empty phase.
inline int min_slots_by_scan(const PhaseStats& stats, Time budget,
                             int max_slots, AriaBound bound) {
  if (stats.empty() || budget <= Time{0}) return 0;
  for (int n = 1; n <= max_slots; ++n) {
    if (aria_estimate(stats, n, bound) <= budget) return n;
  }
  return 0;
}

/// Minimal (n_m + n_r) profile by trying every map-slot count against
/// every reduce-slot count in increasing order.
inline SlotProfile full_sweep_slot_profile(const PhaseStats& map_stats,
                                           const PhaseStats& reduce_stats,
                                           Time now, Time deadline,
                                           int max_map_slots,
                                           int max_reduce_slots,
                                           AriaBound bound) {
  SlotProfile best;
  best.map_slots = map_stats.empty() ? 0 : max_map_slots;
  best.reduce_slots = reduce_stats.empty() ? 0 : max_reduce_slots;
  best.feasible = false;

  const Time budget = deadline - now;
  if (budget <= Time{0}) return best;

  if (map_stats.empty()) {
    const int nr =
        min_slots_by_scan(reduce_stats, budget, max_reduce_slots, bound);
    if (nr > 0 || reduce_stats.empty()) {
      best.map_slots = 0;
      best.reduce_slots = nr;
      best.feasible = true;
    }
    return best;
  }
  if (reduce_stats.empty()) {
    const int nm = min_slots_by_scan(map_stats, budget, max_map_slots, bound);
    if (nm > 0) {
      best.map_slots = nm;
      best.reduce_slots = 0;
      best.feasible = true;
    }
    return best;
  }

  // Reduce estimates by slot count, index 0 unused.
  std::vector<Time> reduce_estimate(
      static_cast<std::size_t>(max_reduce_slots) + 1);
  for (int nr = 1; nr <= max_reduce_slots; ++nr) {
    reduce_estimate[static_cast<std::size_t>(nr)] =
        aria_estimate(reduce_stats, nr, bound);
  }
  int best_total = max_map_slots + max_reduce_slots + 1;
  for (int nm = 1; nm <= max_map_slots; ++nm) {
    const Time residual = budget - aria_estimate(map_stats, nm, bound);
    if (residual <= Time{0}) continue;
    int nr = 1;
    while (nr <= max_reduce_slots &&
           reduce_estimate[static_cast<std::size_t>(nr)] > residual) {
      ++nr;
    }
    if (nr > max_reduce_slots) continue;
    if (nm + nr < best_total) {
      best_total = nm + nr;
      best.map_slots = nm;
      best.reduce_slots = nr;
      best.feasible = true;
    }
    // Every later nm has a total of at least nm + 2.
    if (nr == 1) break;
  }
  return best;
}

/// MinEDF-WC with the same event API as MinEdfWcScheduler; every
/// dispatch sorts the live jobs and rebuilds its grant tables.
class MinEdfScheduler {
 public:
  using LaunchFn = MinEdfWcScheduler::LaunchFn;
  using PhaseQueue = MinEdfWcScheduler::PhaseQueue;

  MinEdfScheduler(const Cluster& cluster, LaunchFn launch, MinEdfConfig config)
      : launch_(std::move(launch)),
        config_(config),
        free_map_(cluster.total_map_slots()),
        free_reduce_(cluster.total_reduce_slots()),
        avail_map_(cluster.total_map_slots()),
        avail_reduce_(cluster.total_reduce_slots()) {}

  void submit(const Job& job, Time now) {
    ++stats_.jobs_submitted;
    JobRun run;
    build_queue(run.maps, job, TaskType::kMap);
    build_queue(run.reduces, job, TaskType::kReduce);
    run.maps_unfinished = static_cast<int>(run.maps.pending());
    run.job = job;
    jobs_.emplace(job.id, std::move(run));
    dispatch(now);
  }

  void on_task_finished(JobId job, int task_index, Time now) {
    auto it = jobs_.find(job);
    MRCP_CHECK(it != jobs_.end());
    JobRun& run = it->second;
    const Task& task = run.job.task(static_cast<std::size_t>(task_index));
    auto drop_one_end = [now](std::vector<Time>& ends) {
      for (std::size_t i = 0; i < ends.size(); ++i) {
        if (ends[i] <= now) {
          ends[i] = ends.back();
          ends.pop_back();
          return;
        }
      }
      ends.pop_back();
    };
    if (task.type == TaskType::kMap) {
      --run.running_maps;
      --run.maps_unfinished;
      drop_one_end(run.maps.running_ends);
      ++free_map_;
    } else {
      --run.running_reduces;
      drop_one_end(run.reduces.running_ends);
      ++free_reduce_;
    }
    if (run.finished()) {
      ++stats_.jobs_completed;
      jobs_.erase(it);
    }
    dispatch(now);
  }

  void handle_resource_down(int map_slots, int reduce_slots) {
    ++stats_.resource_down_events;
    avail_map_ -= map_slots;
    avail_reduce_ -= reduce_slots;
    free_map_ -= map_slots;
    free_reduce_ -= reduce_slots;
  }

  void handle_resource_up(int map_slots, int reduce_slots) {
    ++stats_.resource_up_events;
    avail_map_ += map_slots;
    avail_reduce_ += reduce_slots;
    free_map_ += map_slots;
    free_reduce_ += reduce_slots;
  }

  void handle_task_killed(JobId job, int task_index, Time planned_end,
                          Time /*now*/) {
    JobRun& run = jobs_.at(job);
    const Task& task = run.job.task(static_cast<std::size_t>(task_index));
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
      --run.running_maps;
      drop_exact_end(run.maps.running_ends);
      run.maps.requeue(task_index, task.exec_time);
      ++free_map_;
    } else {
      --run.running_reduces;
      drop_exact_end(run.reduces.running_ends);
      run.reduces.requeue(task_index, task.exec_time);
      ++free_reduce_;
    }
    ++stats_.tasks_requeued;
  }

  Time next_eligible_time(Time now) const {
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

  void wake(Time now) { dispatch(now); }

  std::size_t live_jobs() const { return jobs_.size(); }
  const MinEdfStats& stats() const { return stats_; }

 private:
  struct JobRun {
    Job job;
    PhaseQueue maps;
    PhaseQueue reduces;
    int running_maps = 0;
    int running_reduces = 0;
    int maps_unfinished = 0;

    bool reduces_eligible() const { return maps_unfinished == 0; }
    bool finished() const {
      return maps_unfinished == 0 && reduces.pending() == 0 &&
             running_reduces == 0;
    }
  };

  void build_queue(PhaseQueue& queue, const Job& job, TaskType type) const {
    const std::size_t begin = type == TaskType::kMap ? 0 : job.num_map_tasks();
    const std::size_t count =
        type == TaskType::kMap ? job.num_map_tasks() : job.num_reduce_tasks();
    for (std::size_t i = 0; i < count; ++i) {
      queue.order.push_back(static_cast<int>(begin + i));
    }
    if (config_.task_order == TaskDispatchOrder::kLpt) {
      auto duration = [&](int t) {
        return job.task(static_cast<std::size_t>(t)).exec_time;
      };
      std::stable_sort(
          queue.order.begin(), queue.order.end(),
          [&](int a, int b) { return duration(a) > duration(b); });
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

  std::vector<JobId> edf_order() const {
    std::vector<JobId> order;
    for (const auto& [id, run] : jobs_) order.push_back(id);
    std::stable_sort(order.begin(), order.end(), [&](JobId a, JobId b) {
      const Time da = jobs_.at(a).job.deadline;
      const Time db = jobs_.at(b).job.deadline;
      if (da != db) return da < db;
      return a < b;
    });
    return order;
  }

  bool launch_task(JobRun& run, int task_index, Time now) {
    const Task& task = run.job.task(static_cast<std::size_t>(task_index));
    const Time end = launch_(run.job.id, task_index, now, now + task.exec_time);
    if (end == kNoTime) return false;
    if (task.type == TaskType::kMap) {
      --free_map_;
      ++run.running_maps;
      run.maps.running_ends.push_back(end);
    } else {
      --free_reduce_;
      ++run.running_reduces;
      run.reduces.running_ends.push_back(end);
    }
    ++stats_.tasks_launched;
    return true;
  }

  void dispatch(Time now) {
    ++stats_.dispatches;
    const std::vector<JobId> order = edf_order();
    std::map<JobId, int> grant_m;
    std::map<JobId, int> grant_r;
    int free_m = free_map_;
    int free_r = free_reduce_;

    for (JobId id : order) {
      const JobRun& run = jobs_.at(id);
      if (run.job.earliest_start > now) continue;
      SlotProfile prof;
      if (config_.allocation == AllocationPolicy::kMaximal) {
        prof.map_slots = avail_map_;
        prof.reduce_slots = avail_reduce_;
        prof.feasible = true;
      } else {
        prof = full_sweep_slot_profile(
            run.maps.remaining_stats(now), run.reduces.remaining_stats(now),
            now, run.job.deadline, std::max(1, avail_map_),
            std::max(1, avail_reduce_), config_.bound);
      }
      int want_m = std::max(0, prof.map_slots - run.running_maps);
      want_m = std::max(
          0, std::min({want_m, static_cast<int>(run.maps.pending()), free_m}));
      grant_m[id] = want_m;
      free_m -= want_m;
      if (run.reduces_eligible()) {
        int want_r = std::max(0, prof.reduce_slots - run.running_reduces);
        want_r = std::max(0, std::min({want_r,
                                       static_cast<int>(run.reduces.pending()),
                                       free_r}));
        grant_r[id] = want_r;
        free_r -= want_r;
      }
      if (free_m == 0 && free_r == 0) break;
    }

    for (JobId id : order) {
      if (free_m == 0 && free_r == 0) break;
      const JobRun& run = jobs_.at(id);
      if (run.job.earliest_start > now) continue;
      const int extra_m =
          std::min(free_m, static_cast<int>(run.maps.pending()) - grant_m[id]);
      if (extra_m > 0) {
        grant_m[id] += extra_m;
        free_m -= extra_m;
      }
      if (run.reduces_eligible()) {
        const int extra_r = std::min(
            free_r, static_cast<int>(run.reduces.pending()) - grant_r[id]);
        if (extra_r > 0) {
          grant_r[id] += extra_r;
          free_r -= extra_r;
        }
      }
    }

    for (JobId id : order) {
      JobRun& run = jobs_.at(id);
      std::vector<int> refused_m;
      std::vector<int> refused_r;
      for (int k = 0; k < grant_m[id]; ++k) {
        const int ti = run.maps.pop_front();
        if (!launch_task(run, ti, now)) refused_m.push_back(ti);
      }
      if (grant_r.count(id) != 0U) {
        for (int k = 0; k < grant_r[id]; ++k) {
          const int ti = run.reduces.pop_front();
          if (!launch_task(run, ti, now)) refused_r.push_back(ti);
        }
      }
      for (auto it = refused_m.rbegin(); it != refused_m.rend(); ++it) {
        run.maps.requeue(
            *it, run.job.task(static_cast<std::size_t>(*it)).exec_time);
        ++stats_.tasks_refused;
      }
      for (auto it = refused_r.rbegin(); it != refused_r.rend(); ++it) {
        run.reduces.requeue(
            *it, run.job.task(static_cast<std::size_t>(*it)).exec_time);
        ++stats_.tasks_refused;
      }
    }
  }

  LaunchFn launch_;
  MinEdfConfig config_;
  int free_map_ = 0;
  int free_reduce_ = 0;
  int avail_map_ = 0;
  int avail_reduce_ = 0;
  std::map<JobId, JobRun> jobs_;
  MinEdfStats stats_;
};

}  // namespace mrcp::baseline::reference
