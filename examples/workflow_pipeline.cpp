// Multi-stage workflow scheduling — the paper's §VII generalization
// ("handling more complex workflows with user-specified precedence
// relationships"), implemented via Job::precedences.
//
// Models a three-stage ETL pipeline per request:
//   ingest (maps) -> transform (maps, each depending on one ingest task)
//   -> aggregate (reduces, after all maps by the MapReduce rule).
//
//   ./build/examples/workflow_pipeline
#include <cstdio>

#include "common/table.h"
#include "core/mrcp_rm.h"
#include "mapreduce/cluster.h"
#include "mapreduce/job.h"

using namespace mrcp;

namespace {

/// An ETL pipeline job: `width` parallel lanes; lane i is
/// ingest_i -> transform_i; one aggregate reduce at the end.
Job make_pipeline(JobId id, Time start_s, Time deadline_s, int width,
                  Time ingest_s, Time transform_s, Time aggregate_s) {
  Job j;
  j.id = id;
  j.arrival_time = Time{0};
  j.earliest_start = Time{start_s} * kTicksPerSecond;
  j.deadline = Time{deadline_s} * kTicksPerSecond;
  for (int lane = 0; lane < width; ++lane) {
    j.map_tasks.push_back(
        make_task(TaskType::kMap, ingest_s * kTicksPerSecond));
  }
  for (int lane = 0; lane < width; ++lane) {
    j.map_tasks.push_back(
        make_task(TaskType::kMap, transform_s * kTicksPerSecond));
    // transform of lane `lane` waits for its ingest task.
    j.precedences.emplace_back(lane, width + lane);
  }
  j.reduce_tasks.push_back(
      make_task(TaskType::kReduce, aggregate_s * kTicksPerSecond));
  return j;
}

}  // namespace

int main() {
  MrcpConfig config;
  config.defer_future_jobs = false;
  config.validate_plans = true;  // belt-and-braces for the demo
  MrcpRm rm(Cluster::homogeneous(4, 2, 1), config);

  rm.submit(make_pipeline(0, Time{0}, Time{400}, /*width=*/3, Time{40}, Time{60}, Time{50}), Time{0});
  rm.submit(make_pipeline(1, Time{0}, Time{600}, /*width=*/2, Time{80}, Time{30}, Time{40}), Time{0});

  const Plan& plan = rm.reschedule(Time{0});

  Table table({"job", "task", "stage", "resource", "start(s)", "end(s)"});
  for (const PlannedTask& pt : plan.tasks) {
    const char* stage = pt.type == TaskType::kReduce ? "aggregate"
                        : pt.task_index < 3 && pt.job == 0 ? "ingest"
                        : pt.job == 0                      ? "transform"
                        : pt.task_index < 2                ? "ingest"
                                                           : "transform";
    table.add_row({std::to_string(pt.job), std::to_string(pt.task_index),
                   stage, std::to_string(pt.resource),
                   Table::cell(ticks_to_seconds(pt.start), 0),
                   Table::cell(ticks_to_seconds(pt.end), 0)});
  }
  std::printf("ETL pipeline schedule (ingest -> transform -> aggregate):\n%s\n",
              table.to_string().c_str());

  // Show that each transform starts exactly when its ingest lane ends.
  for (const PlannedTask& pt : plan.tasks) {
    if (pt.job != 0 || pt.type != TaskType::kMap || pt.task_index < 3) continue;
    const int lane = pt.task_index - 3;
    for (const PlannedTask& ingest : plan.tasks) {
      if (ingest.job == 0 && ingest.task_index == lane &&
          pt.start < ingest.end) {
        std::printf("ERROR: transform lane %d starts before its ingest!\n",
                    lane);
        return 1;
      }
    }
  }
  std::printf("all transform stages respect their ingest lanes — OK\n");
  return 0;
}
