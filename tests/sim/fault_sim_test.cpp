// End-to-end fault injection through both simulation drivers: kills,
// rescheduling, determinism, and the fault-aware execution validator.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "../test_util.h"
#include "sim/cluster_sim.h"

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

/// Budget by fails/iterations only — the time limit must not bind, so
/// results are bit-reproducible across runs.
MrcpConfig deterministic_mrcp_config() {
  MrcpConfig c;
  c.solve.time_limit_s = 60.0;
  c.solve.improvement_fails = 300;
  c.solve.lns_iterations = 4;
  c.validate_plans = true;
  return c;
}

/// A workload long enough for an aggressive fault config to hit it.
Workload faulty_workload() {
  std::vector<Job> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(make_job(i, Time{i * 2000}, Time{i * 2000}, Time{i * 2000 + 200000},
                            {Time{5000}, Time{5000}}, {Time{4000}}));
  }
  return make_workload(std::move(jobs), 3, 2, 2);
}

SimOptions aggressive_faults(std::uint64_t seed = 3) {
  SimOptions o;
  o.faults.mtbf_s = 8.0;
  o.faults.mttr_s = 4.0;
  o.faults.seed = seed;
  return o;
}

void expect_same_outcome(const SimMetrics& a, const SimMetrics& b) {
  ASSERT_EQ(a.executed.size(), b.executed.size());
  for (std::size_t i = 0; i < a.executed.size(); ++i) {
    EXPECT_EQ(a.executed[i].job, b.executed[i].job);
    EXPECT_EQ(a.executed[i].task_index, b.executed[i].task_index);
    EXPECT_EQ(a.executed[i].resource, b.executed[i].resource);
    EXPECT_EQ(a.executed[i].start, b.executed[i].start);
    EXPECT_EQ(a.executed[i].end, b.executed[i].end);
  }
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].completion, b.records[i].completion);
    EXPECT_EQ(a.records[i].late, b.records[i].late);
    EXPECT_EQ(a.records[i].failure_affected, b.records[i].failure_affected);
  }
  EXPECT_EQ(a.killed.size(), b.killed.size());
  EXPECT_EQ(a.failure.tasks_killed, b.failure.tasks_killed);
  EXPECT_EQ(a.failure.wasted_ticks, b.failure.wasted_ticks);
}

TEST(FaultSim, DisabledFaultsMatchDefaultRunMrcp) {
  const Workload w = faulty_workload();
  const SimMetrics plain = simulate_mrcp(w, fast_mrcp_config());
  SimOptions off;  // mtbf 0, straggler_prob 0 — but non-default idle knobs
  off.faults.mttr_s = 123.0;
  off.faults.seed = 99;
  const SimMetrics with_off = simulate_mrcp(w, fast_mrcp_config(), off);
  expect_same_outcome(plain, with_off);
  EXPECT_TRUE(with_off.downtime.empty());
  EXPECT_EQ(with_off.failure.resource_failures, 0u);
}

TEST(FaultSim, DisabledFaultsMatchDefaultRunMinedf) {
  const Workload w = faulty_workload();
  const SimMetrics plain = simulate_minedf(w);
  SimOptions off;
  off.faults.mttr_s = 123.0;
  off.faults.straggler_factor = 4.0;  // idle: prob stays 0
  const SimMetrics with_off =
      simulate_minedf(w, baseline::MinEdfConfig{}, off);
  expect_same_outcome(plain, with_off);
  EXPECT_TRUE(with_off.downtime.empty());
}

TEST(FaultSim, MrcpSurvivesFailures) {
  const Workload w = faulty_workload();
  // validate_execution runs inside (aborts on any inconsistency).
  const SimMetrics m =
      simulate_mrcp(w, fast_mrcp_config(), aggressive_faults());
  for (const JobRecord& r : m.records) EXPECT_TRUE(r.completed());
  EXPECT_GT(m.failure.resource_failures, 0u);
  EXPECT_GT(m.failure.tasks_killed, 0u);
  EXPECT_EQ(m.failure.tasks_killed, m.killed.size());
  Time wasted;
  for (const ExecutedTask& k : m.killed) {
    wasted += k.end - k.start;
    EXPECT_TRUE(m.records[static_cast<std::size_t>(k.job)].failure_affected);
  }
  EXPECT_EQ(m.failure.wasted_ticks, wasted);
  EXPECT_FALSE(m.downtime.empty());
}

TEST(FaultSim, MinedfSurvivesFailures) {
  const Workload w = faulty_workload();
  const SimMetrics m = simulate_minedf(w, baseline::MinEdfConfig{},
                                       aggressive_faults());
  for (const JobRecord& r : m.records) EXPECT_TRUE(r.completed());
  EXPECT_GT(m.failure.resource_failures, 0u);
  EXPECT_GT(m.failure.tasks_killed, 0u);
  EXPECT_EQ(m.failure.tasks_killed, m.killed.size());
  for (const ExecutedTask& k : m.killed) {
    EXPECT_TRUE(m.records[static_cast<std::size_t>(k.job)].failure_affected);
  }
}

TEST(FaultSim, FaultTraceIsCommonAcrossPolicies) {
  const Workload w = faulty_workload();
  const SimOptions o = aggressive_faults();
  const SimMetrics a = simulate_mrcp(w, fast_mrcp_config(), o);
  const SimMetrics b = simulate_minedf(w, baseline::MinEdfConfig{}, o);
  // The drivers stop injecting when their workload drains, so one trace
  // may extend past the other — but the common prefix is identical (the
  // injector never consults the policy).
  ASSERT_FALSE(a.downtime.empty());
  ASSERT_FALSE(b.downtime.empty());
  const std::size_t n = std::min(a.downtime.size(), b.downtime.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(a.downtime[i].resource, b.downtime[i].resource);
    EXPECT_EQ(a.downtime[i].start, b.downtime[i].start);
  }
}

TEST(FaultSim, RepeatedRunsAreIdentical) {
  const Workload w = faulty_workload();
  const SimOptions o = aggressive_faults();
  const SimMetrics a = simulate_mrcp(w, deterministic_mrcp_config(), o);
  const SimMetrics b = simulate_mrcp(w, deterministic_mrcp_config(), o);
  expect_same_outcome(a, b);
  const SimMetrics c = simulate_minedf(w, baseline::MinEdfConfig{}, o);
  const SimMetrics d = simulate_minedf(w, baseline::MinEdfConfig{}, o);
  expect_same_outcome(c, d);
}

TEST(FaultSim, StragglersSlowTheJobDown) {
  const Workload w =
      make_workload({make_job(0, Time{0}, Time{0}, Time{100000}, {Time{1000}}, {Time{2000}})}, 1, 1, 1);
  SimOptions o;
  o.faults.straggler_prob = 1.0;
  o.faults.straggler_factor = 2.0;

  const SimMetrics mrcp = simulate_mrcp(w, fast_mrcp_config(), o);
  EXPECT_EQ(mrcp.records[0].completion, Time{6000});  // (1000 + 2000) * 2
  EXPECT_EQ(mrcp.failure.straggler_tasks, 2u);

  const SimMetrics minedf = simulate_minedf(w, baseline::MinEdfConfig{}, o);
  EXPECT_EQ(minedf.records[0].completion, Time{6000});
  EXPECT_EQ(minedf.failure.straggler_tasks, 2u);
}

// ---- Fault-aware validator, exercised directly with hand-built traces.

Workload two_resource_workload() {
  // One map task of 100 ticks; two single-slot resources.
  return make_workload({make_job(0, Time{0}, Time{0}, Time{100000}, {Time{100}}, {})}, 2, 1, 1);
}

TEST(ValidateExecutionFaults, AcceptsKilledAttemptAtFailure) {
  const Workload w = two_resource_workload();
  const std::vector<DownInterval> downtime = {{0, Time{50}, Time{200}}};
  const std::vector<ExecutedTask> killed = {{0, 0, 0, Time{0}, Time{50}}};
  const std::vector<ExecutedTask> executed = {{0, 0, 1, Time{50}, Time{150}}};
  EXPECT_EQ(validate_execution(w, executed, killed, downtime), "");
}

TEST(ValidateExecutionFaults, RejectsKillWithoutMatchingFailure) {
  const Workload w = two_resource_workload();
  const std::vector<DownInterval> downtime = {{0, Time{50}, Time{200}}};
  // Attempt ends at 40, but resource 0 fails at 50.
  const std::vector<ExecutedTask> killed = {{0, 0, 0, Time{0}, Time{40}}};
  const std::vector<ExecutedTask> executed = {{0, 0, 1, Time{50}, Time{150}}};
  EXPECT_NE(validate_execution(w, executed, killed, downtime), "");
}

TEST(ValidateExecutionFaults, RejectsKilledAttemptThatRanToCompletion) {
  const Workload w = two_resource_workload();
  const std::vector<DownInterval> downtime = {{0, Time{100}, Time{200}}};
  // 100 ticks is the full exec time — that is a completion, not a kill.
  const std::vector<ExecutedTask> killed = {{0, 0, 0, Time{0}, Time{100}}};
  const std::vector<ExecutedTask> executed = {{0, 0, 1, Time{100}, Time{200}}};
  EXPECT_NE(validate_execution(w, executed, killed, downtime), "");
}

TEST(ValidateExecutionFaults, RejectsExecutionDuringDowntime) {
  const Workload w = two_resource_workload();
  const std::vector<DownInterval> downtime = {{1, Time{60}, Time{120}}};
  // Successful run on resource 1 overlaps its [60, 120) outage.
  const std::vector<ExecutedTask> executed = {{0, 0, 1, Time{50}, Time{150}}};
  EXPECT_NE(validate_execution(w, executed, {}, downtime), "");
}

TEST(ValidateExecutionFaults, OpenDowntimeBlocksForever) {
  const Workload w = two_resource_workload();
  const std::vector<DownInterval> downtime = {{0, Time{50}, kNoTime}};
  // Resource 0 never comes back; anything on it after 50 must fail.
  const std::vector<ExecutedTask> executed = {{0, 0, 0, Time{60}, Time{160}}};
  EXPECT_NE(validate_execution(w, executed, {}, downtime), "");
  const std::vector<ExecutedTask> ok = {{0, 0, 1, Time{60}, Time{160}}};
  EXPECT_EQ(validate_execution(w, ok, {}, downtime), "");
}

TEST(ValidateExecutionFaults, KilledAttemptCountsTowardCapacity) {
  // Single resource with one map slot: a killed attempt overlapping the
  // successful one double-books the slot.
  const Workload w =
      make_workload({make_job(0, Time{0}, Time{0}, Time{100000}, {Time{100}}, {})}, 1, 1, 1);
  const std::vector<DownInterval> downtime = {{0, Time{50}, Time{60}}};
  const std::vector<ExecutedTask> killed = {{0, 0, 0, Time{10}, Time{50}}};
  // Overlaps the killed attempt's [10, 50) occupancy.
  const std::vector<ExecutedTask> bad = {{0, 0, 0, Time{20}, Time{120}}};
  EXPECT_NE(validate_execution(w, bad, killed, downtime), "");
  // Starting after the repair is fine.
  const std::vector<ExecutedTask> good = {{0, 0, 0, Time{60}, Time{160}}};
  EXPECT_EQ(validate_execution(w, good, killed, downtime), "");
}

TEST(ValidateExecutionFaults, KilledAttemptIsExemptFromAntiAffinity) {
  // Two maps in one anti-affinity group. Map 0's first attempt dies on
  // resource 0 and re-runs on resource 1; map 1 then legally completes on
  // resource 0, where the killed sibling attempt once sat.
  Job job = make_job(0, Time{0}, Time{0}, Time{100000}, {Time{100}, Time{100}}, {});
  for (Task& t : job.map_tasks) t.affinity_group = 0;
  const Workload w = make_workload({job}, 2, 1, 1);
  const std::vector<DownInterval> downtime = {{0, Time{50}, Time{60}}};
  const std::vector<ExecutedTask> killed = {{0, 0, 0, Time{0}, Time{50}}};
  const std::vector<ExecutedTask> executed = {{0, 0, 1, Time{60}, Time{160}},
                                              {0, 1, 0, Time{60}, Time{160}}};
  EXPECT_EQ(validate_execution(w, executed, killed, downtime), "");
  // Two *completions* on one resource still violate the group.
  const std::vector<ExecutedTask> shared = {{0, 0, 0, Time{60}, Time{160}},
                                            {0, 1, 0, Time{160}, Time{260}}};
  EXPECT_NE(validate_execution(w, shared, killed, downtime), "");
}

}  // namespace
}  // namespace mrcp::sim
