// Shared helpers for building small jobs/workloads in tests.
#pragma once

#include <vector>

#include "common/types.h"
#include "mapreduce/cluster.h"
#include "mapreduce/job.h"
#include "mapreduce/workload.h"

namespace mrcp::testutil {

/// A job with explicit map/reduce durations (in ticks).
inline Job make_job(JobId id, Time arrival, Time earliest_start, Time deadline,
                    const std::vector<Time>& map_durs,
                    const std::vector<Time>& reduce_durs) {
  Job j;
  j.id = id;
  j.arrival_time = arrival;
  j.earliest_start = earliest_start;
  j.deadline = deadline;
  for (Time d : map_durs) {
    j.map_tasks.push_back(make_task(TaskType::kMap, d));
  }
  for (Time d : reduce_durs) {
    j.reduce_tasks.push_back(make_task(TaskType::kReduce, d));
  }
  return j;
}

/// Workload from explicit jobs on a homogeneous cluster.
inline Workload make_workload(std::vector<Job> jobs, int m, int map_cap,
                              int reduce_cap) {
  Workload w;
  w.jobs = std::move(jobs);
  w.cluster = Cluster::homogeneous(m, map_cap, reduce_cap);
  return w;
}

}  // namespace mrcp::testutil
