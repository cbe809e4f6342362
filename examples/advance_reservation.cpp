// Advance reservations: jobs whose SLA earliest start time s_j lies in
// the future. Demonstrates the §V.E deferral queue — far-future jobs
// wait outside the CP model until close to their start — and that
// execution never begins before s_j.
//
//   ./build/examples/advance_reservation
#include <cstdio>

#include "common/table.h"
#include "core/mrcp_rm.h"
#include "mapreduce/cluster.h"
#include "mapreduce/job.h"

using namespace mrcp;

namespace {
Job make_ar_job(JobId id, Time arrival_s, Time start_s, Time deadline_s,
                int maps, Time map_dur_s) {
  Job j;
  j.id = id;
  j.arrival_time = arrival_s * kTicksPerSecond;
  j.earliest_start = start_s * kTicksPerSecond;
  j.deadline = deadline_s * kTicksPerSecond;
  for (int t = 0; t < maps; ++t) {
    j.map_tasks.push_back(
        make_task(TaskType::kMap, map_dur_s * kTicksPerSecond));
  }
  j.reduce_tasks.push_back(
      make_task(TaskType::kReduce, map_dur_s * kTicksPerSecond));
  return j;
}

void print_plan(const char* label, const Plan& plan) {
  Table table({"job", "task", "type", "resource", "start(s)", "end(s)"});
  for (const PlannedTask& pt : plan.tasks) {
    table.add_row({std::to_string(pt.job), std::to_string(pt.task_index),
                   task_type_name(pt.type), std::to_string(pt.resource),
                   Table::cell(ticks_to_seconds(pt.start), 0),
                   Table::cell(ticks_to_seconds(pt.end), 0)});
  }
  std::printf("%s\n%s\n", label, table.to_string().c_str());
}
}  // namespace

int main() {
  MrcpConfig config;
  config.defer_future_jobs = true;
  config.deferral_window = Time{120} * kTicksPerSecond;  // wake 2 min before s_j

  MrcpRm rm(Cluster::homogeneous(2, 2, 1), config);

  // An on-demand job (s_j = arrival) and two reservations for later.
  rm.submit(make_ar_job(0, Time{0}, Time{0}, Time{600}, 3, Time{60}), Time{0});
  rm.submit(make_ar_job(1, Time{0}, Time{300}, Time{1200}, 2, Time{90}), Time{0});    // reserved at t=300s
  rm.submit(make_ar_job(2, Time{0}, Time{4000}, Time{6000}, 4, Time{120}), Time{0});  // far future

  const Plan& p0 = rm.reschedule(Time{0});
  print_plan("t=0: jobs 1 and 2 deferred (releases at s_j - window):", p0);
  std::printf("next deferral release: %.0f s\n\n",
              ticks_to_seconds(rm.next_deferred_release()));

  // In the simulator these invocations are driven by deferral-release
  // wakeup events; here we call them explicitly.
  const Plan& p_mid = rm.reschedule(rm.next_deferred_release());
  print_plan("t=180 s: job 1 released, scheduled at its s_j = 300 s:", p_mid);

  const Plan& p1 = rm.reschedule(Time{3880} * kTicksPerSecond);
  print_plan("t=3880 s: job 2 released, scheduled at its s_j = 4000 s:", p1);

  // Every job-2 task must start at or after its reservation time.
  for (const PlannedTask& pt : p1.tasks) {
    if (pt.job == 2 && pt.start < Time{4000} * kTicksPerSecond) {
      std::printf("ERROR: task scheduled before its reservation!\n");
      return 1;
    }
  }
  std::printf("\nall reserved tasks start at/after their s_j — OK\n");
  return 0;
}
