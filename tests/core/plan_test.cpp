#include "core/plan.h"

#include <gtest/gtest.h>

#include "../test_util.h"

namespace mrcp {
namespace {

using testutil::make_job;

struct Fixture {
  Job job = make_job(0, Time{0}, Time{0}, Time{10000}, {Time{100}, Time{200}}, {Time{300}});
  Cluster cluster = Cluster::homogeneous(2, 1, 1);
  std::vector<const Job*> jobs_by_id{&job};

  Plan good_plan() const {
    Plan p;
    p.planned_at = Time{0};
    p.tasks = {
        {0, 0, TaskType::kMap, 0, Time{0}, Time{100}, false},
        {0, 1, TaskType::kMap, 1, Time{0}, Time{200}, false},
        {0, 2, TaskType::kReduce, 0, Time{200}, Time{500}, false},
    };
    return p;
  }
};

TEST(ValidatePlan, AcceptsGoodPlan) {
  Fixture f;
  EXPECT_EQ(validate_plan(f.good_plan(), f.cluster, f.jobs_by_id), "");
}

TEST(ValidatePlan, EmptyPlanIsValid) {
  Fixture f;
  Plan p;
  EXPECT_EQ(validate_plan(p, f.cluster, f.jobs_by_id), "");
}

TEST(ValidatePlan, CatchesResourceOutOfRange) {
  Fixture f;
  Plan p = f.good_plan();
  p.tasks[0].resource = 5;
  EXPECT_NE(validate_plan(p, f.cluster, f.jobs_by_id), "");
}

TEST(ValidatePlan, CatchesWrongDuration) {
  Fixture f;
  Plan p = f.good_plan();
  p.tasks[0].end = Time{150};  // task 0 takes 100 ticks
  EXPECT_NE(validate_plan(p, f.cluster, f.jobs_by_id), "");
}

TEST(ValidatePlan, CatchesTypeMismatch) {
  Fixture f;
  Plan p = f.good_plan();
  p.tasks[0].type = TaskType::kReduce;
  EXPECT_NE(validate_plan(p, f.cluster, f.jobs_by_id), "");
}

TEST(ValidatePlan, CatchesCapacityOverload) {
  Fixture f;
  Plan p = f.good_plan();
  p.tasks[1].resource = 0;  // both maps on the single-slot resource 0
  EXPECT_NE(validate_plan(p, f.cluster, f.jobs_by_id), "");
  // Back to back at full slot capacity is fine.
  p.tasks[1].start = Time{100};
  p.tasks[1].end = Time{300};
  p.tasks[2].start = Time{300};
  p.tasks[2].end = Time{600};
  EXPECT_EQ(validate_plan(p, f.cluster, f.jobs_by_id), "");
}

TEST(ValidatePlan, CatchesReduceBeforeMaps) {
  Fixture f;
  Plan p = f.good_plan();
  p.tasks[2].start = Time{150};  // map 1 ends at 200
  p.tasks[2].end = Time{450};
  EXPECT_NE(validate_plan(p, f.cluster, f.jobs_by_id), "");
  // A started reduce is still held to the barrier.
  p.tasks[2].started = true;
  EXPECT_NE(validate_plan(p, f.cluster, f.jobs_by_id), "");
}

TEST(ValidatePlan, CatchesEarlyStartForUnstartedMap) {
  Job job = make_job(0, Time{0}, Time{1000}, Time{10000}, {Time{100}}, {});
  Cluster cluster = Cluster::homogeneous(1, 1, 1);
  std::vector<const Job*> jobs_by_id{&job};
  Plan p;
  p.tasks = {{0, 0, TaskType::kMap, 0, Time{500}, Time{600}, false}};
  EXPECT_NE(validate_plan(p, cluster, jobs_by_id), "");
  // The same placement is fine when the task already started (it was
  // legal when planned; s_j clamping happened later).
  p.tasks[0].started = true;
  EXPECT_EQ(validate_plan(p, cluster, jobs_by_id), "");
}

TEST(ValidatePlan, CatchesUnknownJob) {
  Fixture f;
  Plan p = f.good_plan();
  p.tasks[0].job = 7;
  EXPECT_NE(validate_plan(p, f.cluster, f.jobs_by_id), "");
}

TEST(ValidatePlan, CatchesBadTaskIndex) {
  Fixture f;
  Plan p = f.good_plan();
  p.tasks[0].task_index = 9;
  EXPECT_NE(validate_plan(p, f.cluster, f.jobs_by_id), "");
}

TEST(ValidatePlan, ChecksWorkflowPrecedences) {
  Job job = make_job(0, Time{0}, Time{0}, Time{10000}, {Time{100}, Time{100}}, {});
  job.precedences = {{0, 1}};
  Cluster cluster = Cluster::homogeneous(2, 1, 1);
  std::vector<const Job*> jobs_by_id{&job};
  Plan p;
  p.tasks = {
      {0, 0, TaskType::kMap, 0, Time{0}, Time{100}, false},
      {0, 1, TaskType::kMap, 1, Time{50}, Time{150}, false},  // overlaps its pred
  };
  EXPECT_NE(validate_plan(p, cluster, jobs_by_id), "");
  // A started successor was legal when placed: exempt.
  p.tasks[1].started = true;
  EXPECT_EQ(validate_plan(p, cluster, jobs_by_id), "");
  p.tasks[1].started = false;
  p.tasks[1].start = Time{100};
  p.tasks[1].end = Time{200};
  EXPECT_EQ(validate_plan(p, cluster, jobs_by_id), "");
}

TEST(ValidatePlan, ChecksNetworkCapacity) {
  Job job = make_job(0, Time{0}, Time{0}, Time{10000}, {Time{100}, Time{100}}, {});
  for (Task& t : job.map_tasks) t.net_demand = 1;
  Cluster cluster = Cluster::homogeneous(1, 2, 1, /*net_capacity=*/1);
  std::vector<const Job*> jobs_by_id{&job};
  Plan p;
  p.tasks = {
      {0, 0, TaskType::kMap, 0, Time{0}, Time{100}, false},
      {0, 1, TaskType::kMap, 0, Time{0}, Time{100}, false},  // 2 link units on cap 1
  };
  EXPECT_NE(validate_plan(p, cluster, jobs_by_id), "");
  p.tasks[1].start = Time{100};
  p.tasks[1].end = Time{200};
  EXPECT_EQ(validate_plan(p, cluster, jobs_by_id), "");
}

TEST(ValidatePlan, NetDemandOnZeroCapacityResourceFails) {
  // Resource 1 models links, so links are constrained cluster-wide and
  // resource 0 has no room for net demand.
  Job job = make_job(0, Time{0}, Time{0}, Time{10000}, {Time{100}}, {});
  job.map_tasks[0].net_demand = 1;
  Cluster cluster;
  cluster.add_resource(1, 1, /*net_capacity=*/0);
  cluster.add_resource(1, 1, /*net_capacity=*/1);
  std::vector<const Job*> jobs_by_id{&job};
  Plan p;
  p.tasks = {{0, 0, TaskType::kMap, 0, Time{0}, Time{100}, false}};
  EXPECT_NE(validate_plan(p, cluster, jobs_by_id), "");
  p.tasks[0].resource = 1;
  EXPECT_EQ(validate_plan(p, cluster, jobs_by_id), "");
}

TEST(ValidatePlan, CatchesAntiAffinityViolation) {
  Job job = make_job(0, Time{0}, Time{0}, Time{10000}, {Time{100}, Time{100}}, {});
  for (Task& t : job.map_tasks) t.affinity_group = 0;
  Cluster cluster = Cluster::homogeneous(2, 1, 1);
  std::vector<const Job*> jobs_by_id{&job};
  Plan p;
  p.tasks = {
      {0, 0, TaskType::kMap, 0, Time{0}, Time{100}, true},
      {0, 1, TaskType::kMap, 0, Time{100}, Time{200}, false},
  };
  EXPECT_NE(validate_plan(p, cluster, jobs_by_id), "");
  p.tasks[1].resource = 1;
  EXPECT_EQ(validate_plan(p, cluster, jobs_by_id), "");
}

TEST(PlanToString, MentionsEpochAndCount) {
  Plan p;
  p.epoch = 7;
  p.tasks.resize(3);
  const std::string s = p.to_string();
  EXPECT_NE(s.find("epoch=7"), std::string::npos);
  EXPECT_NE(s.find("tasks=3"), std::string::npos);
}

}  // namespace
}  // namespace mrcp
