// End-to-end fault injection through both simulation drivers: kills,
// rescheduling, determinism, and the fault-aware execution validator.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "../test_util.h"
#include "des/simulation.h"
#include "mapreduce/synthetic_workload.h"
#include "sim/cluster_sim.h"
#include "sim/fault_injector.h"

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

// ---- Liveness: every run ends ----

/// The first failure (resource, time) the injector draws for a cluster
/// of `resources` machines. The fault trace never depends on the
/// workload, so a workload can be built around it.
std::pair<ResourceId, Time> first_failure(int resources,
                                          const FaultConfig& faults) {
  des::Simulation des;
  FaultInjector injector(resources, faults);
  std::pair<ResourceId, Time> first{kNoResource, kNoTime};
  injector.start(
      des,
      [&first](ResourceId r, Time t) {
        if (first.first == kNoResource) first = {r, t};
      },
      [](ResourceId, Time) {});
  while (first.first == kNoResource) {
    if (!des.step()) break;
  }
  return first;
}

class FaultSimScopes : public ::testing::TestWithParam<ReplanScope> {};

// A resource fails at the very tick a task ends, and the replan at that
// tick parks another job. The RM sweeps the ending task as completed
// (end <= now) before its end event fires; the executor must still run
// that event. A driver that infers "parked" from absence in the plan
// cancels it instead: the job never finishes, and the fault injector
// keeps the run going forever.
TEST_P(FaultSimScopes, TaskEndingAtAFailureThatParksStillCompletes) {
  SimOptions options;
  options.faults.mtbf_s = 1000.0;
  options.faults.mttr_s = 20.0;
  options.faults.seed = 5;
  const auto [failed, at] = first_failure(2, options.faults);
  ASSERT_NE(failed, kNoResource);
  ASSERT_GT(at, Time{10'000});

  // Job 0's only task is planned ahead of time to end exactly at the
  // failure; no event falls between its start and its end, so nothing
  // commits it. Job 1's only task may run on the failing resource alone,
  // after the failure: the failure resets it and parks job 1.
  const Time duration{1000};
  const Job ending = make_job(0, Time{0}, at - duration,
                              at + Time{100'000}, {duration}, {});
  Job pinned = make_job(1, Time{0}, at + Time{5000}, at + Time{200'000},
                        {duration}, {});
  pinned.map_tasks[0].candidates = {failed};
  const Workload w = make_workload({ending, pinned}, 2, 1, 1);

  MrcpConfig config = deterministic_mrcp_config();
  config.defer_future_jobs = false;
  config.replan_scope = GetParam();
  const SimMetrics m = simulate_mrcp(w, config, options);
  ASSERT_EQ(m.executed.size(), 2u);
  EXPECT_EQ(m.records[0].completion, at);
  EXPECT_TRUE(m.killed.empty());
  EXPECT_GT(m.records[1].completion, at + Time{5000});
  EXPECT_GE(m.degradation.parked, 1u);
}

// Heterogeneous, placement-constrained clusters under both failure kinds
// (independent failures and rack bursts): every run must end, every job
// complete, and the executed trace pass the fault-aware validator.
TEST_P(FaultSimScopes, HeteroFaultSweepEndsClean) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    SyntheticWorkloadConfig wc;
    wc.num_jobs = 60;
    wc.num_map_tasks = {1, 12};
    wc.num_reduce_tasks = {1, 6};
    wc.num_resources = 8;
    wc.speed_choices = {500, 1000, 2000};
    wc.num_racks = 3;
    wc.locality_prob = 0.3;
    wc.affinity_prob = 0.2;
    wc.seed = seed;
    const Workload w = generate_synthetic_workload(wc);

    SimOptions options;
    options.faults.mtbf_s = 2000.0;
    options.faults.rack_mtbf_s = 8000.0;
    options.faults.seed = seed;
    MrcpConfig config = deterministic_mrcp_config();
    config.replan_scope = GetParam();
    const SimMetrics m = simulate_mrcp(w, config, options);
    for (const JobRecord& r : m.records) EXPECT_TRUE(r.completed());
    EXPECT_GT(m.failure.resource_failures, 0u);
    EXPECT_EQ(validate_execution(w, m.executed, m.killed, m.downtime), "");
  }
}

INSTANTIATE_TEST_SUITE_P(BothScopes, FaultSimScopes,
                         ::testing::Values(ReplanScope::kAllUnstarted,
                                           ReplanScope::kDirtyOnly),
                         [](const auto& param_info) {
                           return param_info.param ==
                                          ReplanScope::kAllUnstarted
                                      ? std::string("AllUnstarted")
                                      : std::string("DirtyOnly");
                         });

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
