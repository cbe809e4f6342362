#include "sim/cluster_sim.h"

#include <gtest/gtest.h>

#include "../test_util.h"

namespace mrcp::sim {
namespace {

using testutil::make_job;
using testutil::make_workload;

MrcpConfig fast_mrcp_config() {
  MrcpConfig c;
  c.solve.time_limit_s = 0.5;
  c.solve.improvement_fails = 500;
  c.solve.lns_iterations = 5;
  c.validate_plans = true;
  return c;
}

TEST(SimulateMrcp, SingleJobCompletesOnTime) {
  const Workload w = make_workload(
      {make_job(0, Time{0}, Time{0}, Time{10000}, {Time{100}, Time{200}}, {Time{300}})}, 2, 1, 1);
  const SimMetrics m = simulate_mrcp(w, fast_mrcp_config());
  ASSERT_EQ(m.records.size(), 1u);
  EXPECT_TRUE(m.records[0].completed());
  EXPECT_EQ(m.records[0].completion, Time{500});  // maps parallel 200, reduce 300
  EXPECT_FALSE(m.records[0].late);
  const auto agg = m.aggregate();
  EXPECT_EQ(agg.late, 0);
  EXPECT_DOUBLE_EQ(agg.percent_late, 0.0);
}

TEST(SimulateMrcp, LateJobDetected) {
  const Workload w =
      make_workload({make_job(0, Time{0}, Time{0}, Time{100}, {Time{500}}, {})}, 1, 1, 1);
  const SimMetrics m = simulate_mrcp(w, fast_mrcp_config());
  EXPECT_TRUE(m.records[0].late);
  EXPECT_EQ(m.aggregate().late, 1);
}

TEST(SimulateMrcp, TwoJobsShareCluster) {
  const Workload w = make_workload(
      {
          make_job(0, Time{0}, Time{0}, Time{100000}, {Time{300}, Time{300}}, {Time{100}}),
          make_job(1, Time{50}, Time{50}, Time{100000}, {Time{200}}, {Time{100}}),
      },
      2, 1, 1);
  const SimMetrics m = simulate_mrcp(w, fast_mrcp_config());
  EXPECT_TRUE(m.records[0].completed());
  EXPECT_TRUE(m.records[1].completed());
  EXPECT_EQ(m.aggregate().late, 0);
}

TEST(SimulateMrcp, ArRequestWaitsForEarliestStart) {
  const Workload w = make_workload(
      {make_job(0, Time{0}, Time{5000}, Time{100000}, {Time{100}}, {})}, 1, 1, 1);
  const SimMetrics m = simulate_mrcp(w, fast_mrcp_config());
  EXPECT_EQ(m.records[0].completion, Time{5100});
  // Turnaround is measured from s_j (paper: CT_j - s_j).
  EXPECT_EQ(m.records[0].turnaround(), Time{100});
}

TEST(SimulateMrcp, DeferralDoesNotChangeOutcome) {
  MrcpConfig defer = fast_mrcp_config();
  defer.defer_future_jobs = true;
  MrcpConfig nodefer = fast_mrcp_config();
  nodefer.defer_future_jobs = false;
  const Workload w = make_workload(
      {
          make_job(0, Time{0}, Time{3000}, Time{100000}, {Time{100}, Time{100}}, {Time{50}}),
          make_job(1, Time{10}, Time{10}, Time{100000}, {Time{200}}, {}),
      },
      2, 1, 1);
  const SimMetrics a = simulate_mrcp(w, defer);
  const SimMetrics b = simulate_mrcp(w, nodefer);
  EXPECT_EQ(a.aggregate().late, b.aggregate().late);
  EXPECT_TRUE(a.records[0].completed());
  EXPECT_TRUE(b.records[0].completed());
}

TEST(SimulateMrcp, ManyJobsAllComplete) {
  std::vector<Job> jobs;
  for (int i = 0; i < 20; ++i) {
    jobs.push_back(make_job(i, Time{i * 100}, Time{i * 100}, Time{i * 100 + 50000},
                            {Time{100}, Time{150}, Time{200}}, {Time{250}}));
  }
  const Workload w = make_workload(std::move(jobs), 4, 2, 2);
  const SimMetrics m = simulate_mrcp(w, fast_mrcp_config());
  for (const JobRecord& r : m.records) EXPECT_TRUE(r.completed());
  EXPECT_GT(m.rm_invocations, 0u);
  EXPECT_GT(m.total_sched_seconds, 0.0);
}

TEST(SimulateMrcp, InvocationRecordsCarryEachCallsWallClock) {
  std::vector<Job> jobs;
  for (int i = 0; i < 20; ++i) {
    jobs.push_back(make_job(i, Time{i * 100}, Time{i * 100}, Time{i * 100 + 50000},
                            {Time{100}, Time{150}, Time{200}}, {Time{250}}));
  }
  const Workload w = make_workload(std::move(jobs), 4, 2, 2);
  const SimMetrics m = simulate_mrcp(w, fast_mrcp_config());
  ASSERT_EQ(m.invocations.size(), m.rm_invocations);
  double sum = 0.0;
  for (const InvocationRecord& rec : m.invocations) {
    // A call's wall clock covers the solves it made.
    EXPECT_GE(rec.wall_seconds, rec.solve_wall_seconds);
    EXPECT_GT(rec.wall_seconds, 0.0);
    sum += rec.wall_seconds;
  }
  // O's numerator is measured after each record is closed.
  EXPECT_LE(sum, m.total_sched_seconds);
}

TEST(SimulateMinedf, SingleJobCompletes) {
  const Workload w = make_workload(
      {make_job(0, Time{0}, Time{0}, Time{10000}, {Time{100}, Time{200}}, {Time{300}})}, 2, 1, 1);
  const SimMetrics m = simulate_minedf(w);
  EXPECT_EQ(m.records[0].completion, Time{500});
  EXPECT_FALSE(m.records[0].late);
}

TEST(SimulateMinedf, LateJobDetected) {
  const Workload w =
      make_workload({make_job(0, Time{0}, Time{0}, Time{100}, {Time{500}}, {})}, 1, 1, 1);
  const SimMetrics m = simulate_minedf(w);
  EXPECT_TRUE(m.records[0].late);
}

TEST(SimulateMinedf, ArRequestHonoured) {
  const Workload w = make_workload(
      {make_job(0, Time{0}, Time{5000}, Time{100000}, {Time{100}}, {})}, 1, 1, 1);
  const SimMetrics m = simulate_minedf(w);
  EXPECT_EQ(m.records[0].completion, Time{5100});
}

TEST(SimulateMinedf, ManyJobsAllComplete) {
  std::vector<Job> jobs;
  for (int i = 0; i < 20; ++i) {
    jobs.push_back(make_job(i, Time{i * 100}, Time{i * 100}, Time{i * 100 + 50000},
                            {Time{100}, Time{150}, Time{200}}, {Time{250}}));
  }
  const Workload w = make_workload(std::move(jobs), 4, 2, 2);
  const SimMetrics m = simulate_minedf(w);
  for (const JobRecord& r : m.records) EXPECT_TRUE(r.completed());
}

TEST(SimulateMinedf, SameTickSlotReuseRecordsBothRuns) {
  // Two machines with one map slot each. Job 0's task holds slot 0
  // (machine 0) over [0, 100). Job 1 arrives at 100, and its arrival event
  // fires before job 0's end event (it was scheduled first). Machine 1 is
  // the free one by the scheduler's count, but the first-free-slot scan
  // takes slot 0, whose occupant ends at this tick: job 1 relaunches slot
  // 0 while job 0's end event is still pending.
  const Workload w = make_workload(
      {make_job(0, Time{0}, Time{0}, Time{10000}, {Time{100}}, {}),
       make_job(1, Time{100}, Time{100}, Time{10000}, {Time{50}}, {})},
      2, 1, 1);
  const SimMetrics m = simulate_minedf(w);
  ASSERT_EQ(m.executed.size(), 2u);
  EXPECT_EQ(m.executed[0].job, 0);
  EXPECT_EQ(m.executed[0].resource, 0);
  EXPECT_EQ(m.executed[0].start, Time{0});
  EXPECT_EQ(m.executed[0].end, Time{100});
  EXPECT_EQ(m.executed[1].job, 1);
  EXPECT_EQ(m.executed[1].resource, 0);
  EXPECT_EQ(m.executed[1].start, Time{100});
  EXPECT_EQ(m.executed[1].end, Time{150});
  EXPECT_EQ(m.records[0].completion, Time{100});
  EXPECT_EQ(m.records[1].completion, Time{150});
}

TEST(ValidateExecution, CatchesMissingTask) {
  const Workload w =
      make_workload({make_job(0, Time{0}, Time{0}, Time{1000}, {Time{10}, Time{10}}, {})}, 1, 2, 1);
  std::vector<ExecutedTask> executed = {{0, 0, 0, Time{0}, Time{10}}};
  EXPECT_NE(validate_execution(w, executed), "");
}

TEST(ValidateExecution, CatchesCapacityViolation) {
  const Workload w =
      make_workload({make_job(0, Time{0}, Time{0}, Time{1000}, {Time{10}, Time{10}}, {})}, 1, 1, 1);
  std::vector<ExecutedTask> executed = {{0, 0, 0, Time{0}, Time{10}}, {0, 1, 0, Time{5}, Time{15}}};
  EXPECT_NE(validate_execution(w, executed), "");
  // Back to back at full slot capacity is fine.
  executed[1] = {0, 1, 0, Time{10}, Time{20}};
  EXPECT_EQ(validate_execution(w, executed), "");
}

TEST(ValidateExecution, CatchesPrecedenceViolation) {
  const Workload w =
      make_workload({make_job(0, Time{0}, Time{0}, Time{1000}, {Time{10}}, {Time{10}})}, 1, 1, 1);
  std::vector<ExecutedTask> executed = {{0, 0, 0, Time{0}, Time{10}}, {0, 1, 0, Time{5}, Time{15}}};
  EXPECT_NE(validate_execution(w, executed), "");
}

TEST(ValidateExecution, CatchesWrongDuration) {
  const Workload w =
      make_workload({make_job(0, Time{0}, Time{0}, Time{1000}, {Time{10}}, {})}, 1, 1, 1);
  std::vector<ExecutedTask> executed = {{0, 0, 0, Time{0}, Time{99}}};
  EXPECT_NE(validate_execution(w, executed), "");
}

TEST(ValidateExecution, AcceptsCleanExecution) {
  const Workload w =
      make_workload({make_job(0, Time{0}, Time{0}, Time{1000}, {Time{10}}, {Time{20}})}, 1, 1, 1);
  std::vector<ExecutedTask> executed = {{0, 0, 0, Time{0}, Time{10}}, {0, 1, 0, Time{10}, Time{30}}};
  EXPECT_EQ(validate_execution(w, executed), "");
}

TEST(ValidateExecution, RejectsStartBeforeEarliestStart) {
  // Plans and CP solutions exempt started/pinned tasks from s_j; an
  // execution has no such exemption.
  const Workload w =
      make_workload({make_job(0, Time{0}, Time{100}, Time{1000}, {Time{10}}, {})}, 1, 1, 1);
  EXPECT_NE(validate_execution(w, {{0, 0, 0, Time{99}, Time{109}}}), "");
  EXPECT_EQ(validate_execution(w, {{0, 0, 0, Time{100}, Time{110}}}), "");
}

TEST(ValidateExecution, NetDemandOnZeroCapacityResourceFails) {
  // Mixed cluster: resource 0 has no link capacity, resource 1 does.
  // Running a net-demanding task on resource 0 must fail validation —
  // not silently skip the network sweep.
  Workload w;
  w.cluster.add_resource(1, 1, /*net=*/0);
  w.cluster.add_resource(1, 1, /*net=*/10);
  Job j = make_job(0, Time{0}, Time{0}, Time{1000}, {Time{10}}, {});
  j.map_tasks[0].net_demand = 5;
  w.jobs.push_back(j);

  const std::vector<ExecutedTask> on_zero_cap = {{0, 0, 0, Time{0}, Time{10}}};
  EXPECT_NE(validate_execution(w, on_zero_cap), "");
  const std::vector<ExecutedTask> on_linked = {{0, 0, 1, Time{0}, Time{10}}};
  EXPECT_EQ(validate_execution(w, on_linked), "");
}

TEST(ValidateExecution, AllZeroNetClusterIgnoresNetDemand) {
  // When no resource models links, net demand is unconstrained (the
  // legacy no-network workloads).
  Workload w;
  w.cluster.add_resource(1, 1, /*net=*/0);
  Job j = make_job(0, Time{0}, Time{0}, Time{1000}, {Time{10}}, {});
  j.map_tasks[0].net_demand = 5;
  w.jobs.push_back(j);
  const std::vector<ExecutedTask> executed = {{0, 0, 0, Time{0}, Time{10}}};
  EXPECT_EQ(validate_execution(w, executed), "");
}

TEST(SimulateMrcp, TurnaroundBatchCiMatchesAggregateMean) {
  std::vector<Job> jobs;
  for (int i = 0; i < 40; ++i) {
    jobs.push_back(make_job(i, Time{i * 500}, Time{i * 500}, Time{i * 500 + 100000},
                            {Time{100}, Time{150}}, {Time{200}}));
  }
  const Workload w = make_workload(std::move(jobs), 4, 1, 1);
  const SimMetrics m = simulate_mrcp(w, fast_mrcp_config());
  const BatchMeansResult bm = m.turnaround_batch_ci(0.0, 10);
  EXPECT_NEAR(bm.mean, m.aggregate(0.0).mean_turnaround_s, 1e-9);
  EXPECT_EQ(bm.batches, 10u);
  EXPECT_GE(bm.half_width, 0.0);
}

TEST(SimulateMrcp, TurnaroundUsesEarliestStartNotArrival) {
  // Job arrives at 0 with s_j = 1000; completes at 1100.
  // T = CT - s_j = 100, not 1100.
  const Workload w = make_workload(
      {make_job(0, Time{0}, Time{1000}, Time{100000}, {Time{100}}, {})}, 1, 1, 1);
  const SimMetrics m = simulate_mrcp(w, fast_mrcp_config());
  EXPECT_NEAR(m.aggregate().mean_turnaround_s, 0.1, 1e-9);
}

}  // namespace
}  // namespace mrcp::sim
