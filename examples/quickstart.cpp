// Quickstart: schedule a small batch of MapReduce jobs with SLAs through
// MRCP-RM and print the resulting matchmaking + schedule.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "common/table.h"
#include "core/mrcp_rm.h"
#include "mapreduce/cluster.h"
#include "mapreduce/job.h"

using namespace mrcp;

namespace {

// A job with an SLA: earliest start s_j, per-task execution times, and an
// end-to-end deadline d_j. Times are in ticks (1 tick = 1 ms).
Job make_job(JobId id, Time earliest_start, Time deadline,
             std::initializer_list<Time> map_secs,
             std::initializer_list<Time> reduce_secs) {
  Job j;
  j.id = id;
  j.arrival_time = Time{0};
  j.earliest_start = earliest_start;
  j.deadline = deadline;
  for (Time s : map_secs) {
    j.map_tasks.push_back(make_task(TaskType::kMap, s * kTicksPerSecond));
  }
  for (Time s : reduce_secs) {
    j.reduce_tasks.push_back(make_task(TaskType::kReduce, s * kTicksPerSecond));
  }
  return j;
}

}  // namespace

int main() {
  // A small cloud: 4 resources, each with 2 map slots and 1 reduce slot.
  Cluster cluster = Cluster::homogeneous(4, 2, 1);

  MrcpConfig config;  // defaults: §V.D separation optimization on
  config.solve.time_limit_s = 1.0;
  // Disable the §V.E deferral queue so the advance reservation (job 20)
  // shows up in the very first plan; see examples/advance_reservation.cpp
  // for the deferral behaviour.
  config.defer_future_jobs = false;
  MrcpRm rm(cluster, config);

  // Three jobs with SLAs. Job 20 is an advance reservation (s_j = 60 s).
  rm.submit(make_job(10, Time{0}, Time{200} * kTicksPerSecond, {Time{30}, Time{30}, Time{20}}, {Time{40}}), Time{0});
  rm.submit(make_job(11, Time{0}, Time{90} * kTicksPerSecond, {Time{25}, Time{25}}, {Time{15}}), Time{0});
  rm.submit(make_job(20, Time{60} * kTicksPerSecond, Time{400} * kTicksPerSecond,
                     {Time{50}, Time{50}, Time{50}, Time{50}}, {Time{60}, Time{60}}),
            Time{0});

  // Run the Table 2 matchmaking-and-scheduling algorithm at t = 0.
  const Plan& plan = rm.reschedule(Time{0});

  Table table({"job", "task", "type", "resource", "start(s)", "end(s)"});
  for (const PlannedTask& pt : plan.tasks) {
    table.add_row({
        std::to_string(pt.job),
        std::to_string(pt.task_index),
        task_type_name(pt.type),
        std::to_string(pt.resource),
        Table::cell(ticks_to_seconds(pt.start), 1),
        Table::cell(ticks_to_seconds(pt.end), 1),
    });
  }
  std::printf("MRCP-RM schedule (epoch %llu):\n%s\n",
              static_cast<unsigned long long>(plan.epoch),
              table.to_string().c_str());
  std::printf("scheduling overhead so far: %.3f ms/job\n",
              rm.stats().average_sched_seconds_per_job() * 1e3);
  return 0;
}
