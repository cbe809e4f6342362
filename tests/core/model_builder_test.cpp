#include "core/model_builder.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace mrcp {
namespace {

LiveTask live_task(int index, TaskType type, Time exec, bool started,
                   ResourceId pinned, Time started_at) {
  LiveTask t;
  t.task_index = index;
  t.type = type;
  t.exec_time = exec;
  t.started = started;
  t.resource = pinned;
  t.start = started_at;
  return t;
}

std::vector<LiveJob> two_live_jobs() {
  std::vector<LiveJob> jobs(2);
  jobs[0].id = 10;
  jobs[0].effective_earliest_start = Time{100};
  jobs[0].deadline = Time{500};
  jobs[0].tasks = {
      live_task(0, TaskType::kMap, Time{30}, false, kNoResource, kNoTime),
      live_task(1, TaskType::kMap, Time{40}, true, 2, Time{90}),  // running on r2
      live_task(2, TaskType::kReduce, Time{50}, false, kNoResource, kNoTime),
  };
  jobs[1].id = 11;
  jobs[1].effective_earliest_start = Time{120};
  jobs[1].deadline = Time{900};
  jobs[1].tasks = {
      live_task(0, TaskType::kMap, Time{25}, false, kNoResource, kNoTime),
  };
  return jobs;
}

TEST(ModelBuilder, DirectModelMirrorsCluster) {
  const Cluster cluster = Cluster::homogeneous(4, 2, 3);
  const BuiltModel built = build_direct_model(cluster, two_live_jobs());
  EXPECT_FALSE(built.combined);
  ASSERT_EQ(built.model.num_resources(), 4u);
  EXPECT_EQ(built.model.resource(0).map_capacity, 2);
  EXPECT_EQ(built.model.resource(0).reduce_capacity, 3);
  EXPECT_EQ(built.model.num_jobs(), 2u);
  EXPECT_EQ(built.model.num_tasks(), 4u);
  EXPECT_EQ(built.model.validate(), "");
}

TEST(ModelBuilder, CombinedModelSumsCapacity) {
  const Cluster cluster = Cluster::homogeneous(4, 2, 3);
  const BuiltModel built = build_combined_model(cluster, two_live_jobs());
  EXPECT_TRUE(built.combined);
  ASSERT_EQ(built.model.num_resources(), 1u);
  EXPECT_EQ(built.model.resource(0).map_capacity, 8);
  EXPECT_EQ(built.model.resource(0).reduce_capacity, 12);
  EXPECT_EQ(built.model.validate(), "");
}

TEST(ModelBuilder, TaskRefsRoundTrip) {
  const Cluster cluster = Cluster::homogeneous(4, 1, 1);
  const BuiltModel built = build_combined_model(cluster, two_live_jobs());
  ASSERT_EQ(built.task_refs.size(), 4u);
  EXPECT_EQ(built.task_refs[0], std::make_pair(JobId{10}, 0));
  EXPECT_EQ(built.task_refs[1], std::make_pair(JobId{10}, 1));
  EXPECT_EQ(built.task_refs[2], std::make_pair(JobId{10}, 2));
  EXPECT_EQ(built.task_refs[3], std::make_pair(JobId{11}, 0));
  ASSERT_EQ(built.job_refs.size(), 2u);
  EXPECT_EQ(built.job_refs[0], 10);
  EXPECT_EQ(built.job_refs[1], 11);
}

TEST(ModelBuilder, StartedTaskPinnedInDirectModel) {
  const Cluster cluster = Cluster::homogeneous(4, 2, 3);
  const BuiltModel built = build_direct_model(cluster, two_live_jobs());
  const cp::CpTask& pinned = built.model.task(1);
  EXPECT_TRUE(pinned.pinned);
  EXPECT_EQ(pinned.pinned_resource, 2);
  EXPECT_EQ(pinned.pinned_start, Time{90});
}

TEST(ModelBuilder, StartedTaskPinnedToCombinedResource) {
  const Cluster cluster = Cluster::homogeneous(4, 2, 3);
  const BuiltModel built = build_combined_model(cluster, two_live_jobs());
  const cp::CpTask& pinned = built.model.task(1);
  EXPECT_TRUE(pinned.pinned);
  EXPECT_EQ(pinned.pinned_resource, 0);  // the combined resource
  EXPECT_EQ(pinned.pinned_start, Time{90});
}

TEST(ModelBuilder, JobSlaCarriedThrough) {
  const Cluster cluster = Cluster::homogeneous(4, 1, 1);
  const BuiltModel built = build_direct_model(cluster, two_live_jobs());
  EXPECT_EQ(built.model.job(0).earliest_start, Time{100});
  EXPECT_EQ(built.model.job(0).deadline, Time{500});
  EXPECT_EQ(built.model.job(0).external_id, 10);
  EXPECT_EQ(built.model.job(1).earliest_start, Time{120});
}

TEST(ModelBuilder, PhaseStructurePreserved) {
  const Cluster cluster = Cluster::homogeneous(4, 1, 1);
  const BuiltModel built = build_direct_model(cluster, two_live_jobs());
  EXPECT_EQ(built.model.job(0).map_tasks.size(), 2u);
  EXPECT_EQ(built.model.job(0).reduce_tasks.size(), 1u);
  EXPECT_EQ(built.model.task(2).phase, cp::Phase::kReduce);
  EXPECT_EQ(built.model.task(2).duration, Time{50});
}

/// Three jobs on a homogeneous cluster. Jobs 20 and 22 carry workflow
/// precedences between live tasks listed out of flat order, with their
/// completed tasks omitted (job 20 lost flat 0, 2 and 5; job 22 lost
/// flat 1); job 21 has no edges.
std::vector<LiveJob> workflow_live_jobs() {
  auto task = [](int index, TaskType type) {
    return live_task(index, type, Time{10 + index}, false, kNoResource,
                     kNoTime);
  };
  std::vector<LiveJob> jobs(3);
  jobs[0].id = 20;
  jobs[0].effective_earliest_start = Time{0};
  jobs[0].deadline = Time{1000};
  // CP tasks 0..4.
  jobs[0].tasks = {task(6, TaskType::kMap), task(1, TaskType::kMap),
                   task(4, TaskType::kMap), task(3, TaskType::kMap),
                   task(7, TaskType::kReduce)};
  jobs[0].precedences = {{6, 1}, {3, 7}, {4, 3}};
  jobs[1].id = 21;
  jobs[1].effective_earliest_start = Time{0};
  jobs[1].deadline = Time{1000};
  // CP tasks 5..6.
  jobs[1].tasks = {task(0, TaskType::kMap), task(1, TaskType::kReduce)};
  jobs[2].id = 22;
  jobs[2].effective_earliest_start = Time{0};
  jobs[2].deadline = Time{1000};
  // CP tasks 7..9.
  jobs[2].tasks = {task(3, TaskType::kMap), task(0, TaskType::kMap),
                   task(2, TaskType::kMap)};
  jobs[2].precedences = {{3, 0}, {2, 0}};
  return jobs;
}

void expect_workflow_edges(const BuiltModel& built) {
  using Preds = std::vector<cp::CpTaskIndex>;
  ASSERT_EQ(built.model.num_tasks(), 10u);
  EXPECT_EQ(built.model.num_precedences(), 5u);
  // Job 20: 6 -> 1, 4 -> 3 -> 7.
  EXPECT_EQ(built.model.predecessors(0), Preds{});
  EXPECT_EQ(built.model.predecessors(1), Preds{0});
  EXPECT_EQ(built.model.predecessors(2), Preds{});
  EXPECT_EQ(built.model.predecessors(3), Preds{2});
  EXPECT_EQ(built.model.predecessors(4), Preds{3});
  // Job 21: no edges.
  EXPECT_EQ(built.model.predecessors(5), Preds{});
  EXPECT_EQ(built.model.predecessors(6), Preds{});
  // Job 22: 3 -> 0 <- 2.
  EXPECT_EQ(built.model.predecessors(7), Preds{});
  EXPECT_EQ(built.model.predecessors(8), (Preds{7, 9}));
  EXPECT_EQ(built.model.predecessors(9), Preds{});
  EXPECT_EQ(built.model.validate(), "");
}

TEST(ModelBuilder, PrecedencesMapFlatIndicesToLiveTasksDirect) {
  const Cluster cluster = Cluster::homogeneous(4, 2, 2);
  expect_workflow_edges(build_direct_model(cluster, workflow_live_jobs()));
}

TEST(ModelBuilder, PrecedencesMapFlatIndicesToLiveTasksCombined) {
  const Cluster cluster = Cluster::homogeneous(4, 2, 2);
  expect_workflow_edges(build_combined_model(cluster, workflow_live_jobs()));
}

TEST(ModelBuilderDeathTest, PrecedenceOnAnAbsentTaskIsFatal) {
  const Cluster cluster = Cluster::homogeneous(4, 2, 2);
  // Job 20's flat 5 completed (absent), flat 9 lies beyond the job and
  // flat -1 is no task at all.
  for (const std::pair<int, int>& edge :
       {std::pair{5, 1}, std::pair{1, 9}, std::pair{-1, 6}}) {
    std::vector<LiveJob> jobs = workflow_live_jobs();
    jobs[0].precedences.push_back(edge);
    EXPECT_DEATH(build_direct_model(cluster, jobs),
                 "precedence references a task absent from the model");
    EXPECT_DEATH(build_combined_model(cluster, jobs),
                 "precedence references a task absent from the model");
  }
}

}  // namespace
}  // namespace mrcp
