// End-to-end tests of the graceful-degradation pipeline
// (docs/degraded_mode.md): the solver watchdog and SolveStatus, the EDF
// fallback and its ledger attribution, unplaceable-job parking, arrivals
// that join the next solve while degraded, and failure recovery that
// stays sound in degraded epochs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "core/degradation.h"
#include "core/mrcp_rm.h"
#include "cp/solver.h"
#include "mapreduce/synthetic_workload.h"
#include "sim/cluster_sim.h"
#include "sim/trace_export.h"

#include "../test_util.h"

namespace mrcp {
namespace {

using testutil::make_job;
using testutil::make_workload;

/// A model large enough that building the search root alone outlasts a
/// nanosecond-scale watchdog, so aborted solves are deterministic.
cp::Model big_model() {
  cp::Model m;
  m.add_resource(4, 4);
  for (int j = 0; j < 6; ++j) {
    const cp::CpJobIndex cj = m.add_job(Time{0}, Time{500 + 100 * j}, j);
    for (int t = 0; t < 8; ++t) m.add_task(cj, cp::Phase::kMap, Time{50});
    for (int t = 0; t < 2; ++t) m.add_task(cj, cp::Phase::kReduce, Time{30});
  }
  return m;
}

MrcpConfig degraded_config() {
  MrcpConfig cfg;
  cfg.validate_plans = true;
  cfg.solve.time_limit_s = 1e-9;  // watchdog expires before any descent
  cfg.solve.seed = 1;
  return cfg;
}

// ---- SolveStatus and the hard watchdog ----

TEST(SolveStatus, Names) {
  EXPECT_STREQ(cp::solve_status_name(cp::SolveStatus::kOptimal), "optimal");
  EXPECT_STREQ(cp::solve_status_name(cp::SolveStatus::kFeasible), "feasible");
  EXPECT_STREQ(cp::solve_status_name(cp::SolveStatus::kBudgetExhausted),
               "budget-exhausted");
  EXPECT_STREQ(cp::solve_status_name(cp::SolveStatus::kInfeasible),
               "infeasible");
}

TEST(SolveStatus, UnconstrainedSolveReportsOptimalAndWallClock) {
  cp::Model m;
  m.add_resource(1, 1);
  const cp::CpJobIndex j = m.add_job(Time{0}, Time{500}, 0);
  m.add_task(j, cp::Phase::kMap, Time{50});
  cp::SolveParams params;
  params.time_limit_s = 5.0;
  const cp::SolveResult r = cp::solve(m, params);
  ASSERT_TRUE(r.best.valid);
  EXPECT_EQ(r.status, cp::SolveStatus::kOptimal);
  EXPECT_FALSE(r.stats.aborted);
  EXPECT_GT(r.wall_seconds, 0.0);
  EXPECT_EQ(r.wall_seconds, r.stats.solve_seconds);
}

TEST(SolveStatus, ExpiredWatchdogYieldsBudgetExhaustedNoSolution) {
  const cp::Model m = big_model();
  cp::SolveParams params;
  params.time_limit_s = 1e-9;
  const Deadline deadline(0.0);  // already expired
  params.hard_deadline = &deadline;
  const cp::SolveResult r = cp::solve(m, params);
  EXPECT_FALSE(r.best.valid);
  EXPECT_EQ(r.status, cp::SolveStatus::kBudgetExhausted);
  EXPECT_TRUE(r.stats.aborted);
  EXPECT_EQ(r.stats.solutions, 0);
}

// ---- Fallback + ledger attribution ----

TEST(DegradedMode, TinyBudgetFallsBackAndLedgerAttributes) {
  MrcpConfig cfg = degraded_config();
  MrcpRm rm(Cluster::homogeneous(2, 2, 2), cfg);

  std::vector<Time> maps(10, Time{50});
  rm.submit(make_job(0, Time{0}, Time{0}, Time{2'000}, maps, {Time{30}, Time{30}}), Time{0});
  rm.submit(make_job(1, Time{0}, Time{0}, Time{2'500}, maps, {Time{30}, Time{30}}), Time{0});
  const Plan& p1 = rm.reschedule(Time{0});
  EXPECT_FALSE(p1.tasks.empty());

  ASSERT_EQ(rm.ledger().records().size(), 1u);
  const InvocationRecord& rec = rm.ledger().records()[0];
  EXPECT_EQ(rec.outcome, InvocationOutcome::kFallback);
  EXPECT_EQ(rec.attempts, 1);
  EXPECT_EQ(rec.last_status, cp::SolveStatus::kBudgetExhausted);
  EXPECT_EQ(rec.epoch, p1.epoch);
  EXPECT_GT(rec.live_tasks, 0u);
  EXPECT_EQ(rm.ledger().counts().fallback, 1u);
  EXPECT_EQ(rm.stats().fallback_plans, 1u);

  // A fallback streak does not stop the RM from solving: an unchanged
  // live set is re-solved (and falls back again), not republished.
  rm.reschedule(Time{1});
  ASSERT_EQ(rm.ledger().records().size(), 2u);
  EXPECT_EQ(rm.ledger().records()[1].outcome, InvocationOutcome::kFallback);
  EXPECT_EQ(rm.ledger().records()[1].attempts, 1);

  // An arrival during the streak is active at once and joins the next
  // solve (paper Table 2), with nothing left in the deferral queue.
  const std::size_t live_before = rm.ledger().records()[1].live_tasks;
  rm.submit(make_job(2, Time{2}, Time{2}, Time{3'000}, {Time{50}}, {}), Time{2});
  EXPECT_EQ(rm.next_deferred_release(), kNoTime);
  EXPECT_EQ(rm.live_jobs(), 3u);
  const Plan& p3 = rm.reschedule(Time{2});
  ASSERT_EQ(rm.ledger().records().size(), 3u);
  EXPECT_EQ(rm.ledger().records()[2].outcome, InvocationOutcome::kFallback);
  EXPECT_EQ(rm.ledger().records()[2].live_tasks, live_before + 1);
  EXPECT_TRUE(std::any_of(p3.tasks.begin(), p3.tasks.end(),
                          [](const PlannedTask& pt) { return pt.job == 2; }));

  // Far in the future everything has completed: idle invocation, and
  // every invocation is attributed to exactly one outcome.
  rm.reschedule(Time{10'000'000});
  const DegradationCounts& counts = rm.ledger().counts();
  EXPECT_EQ(counts.idle, 1u);
  EXPECT_EQ(counts.invocations(), rm.stats().invocations);
  EXPECT_EQ(counts.invocations(), rm.ledger().records().size());
  EXPECT_EQ(rm.stats().jobs_completed, 3u);
}

// ---- Burst workload through the full simulator ----

TEST(DegradedMode, BurstWorkloadWithTinyBudgetSimulatesToCompletion) {
  std::vector<Job> jobs;
  std::vector<Time> maps(8, Time{30'000});
  for (int i = 0; i < 12; ++i) {
    const Time arrival{i};
    jobs.push_back(make_job(i, arrival, arrival, Time{2'000'000 + 50'000 * i},
                            maps, {Time{20'000}, Time{20'000}}));
  }
  const Workload w = make_workload(std::move(jobs), 2, 2, 2);

  MrcpConfig cfg;
  cfg.solve.time_limit_s = 1e-9;
  cfg.validate_plans = true;  // every published plan is re-validated
  sim::SimOptions options;
  options.validate_execution = true;
  // simulate_mrcp aborts internally on an unfinished job, an invalid
  // plan, or an invalid execution — reaching the assertions below means
  // the burst drained cleanly under a hopeless solver budget.
  const sim::SimMetrics metrics = sim::simulate_mrcp(w, cfg, options);

  EXPECT_EQ(metrics.records.size(), 12u);
  for (const sim::JobRecord& r : metrics.records) EXPECT_TRUE(r.completed());
  const DegradationCounts& d = metrics.degradation;
  EXPECT_GT(d.fallback, 0u);
  EXPECT_GT(d.degraded(), 0u);
  EXPECT_EQ(d.invocations(), metrics.rm_invocations);
  // No invocation republishes a stale plan, and every arrival joins the
  // solve at its own tick: the last arrival's invocation already models
  // all twelve jobs' tasks, though every plan so far came from the
  // fallback.
  EXPECT_EQ(d.skipped, 0u);
  std::size_t modeled_at_last_arrival = 0;
  for (const InvocationRecord& rec : metrics.invocations) {
    if (rec.sim_time == Time{11}) {
      EXPECT_EQ(rec.outcome, InvocationOutcome::kFallback);
      modeled_at_last_arrival = rec.live_tasks;
    }
  }
  EXPECT_EQ(modeled_at_last_arrival, 12u * 10u);
}

TEST(DegradedMode, ZeroBudgetFaultRunsAreRepeatable) {
  // At budget 0 the hard watchdog expires before the first decision, so
  // every invocation's plan comes from pinned-only solves and the
  // deterministic EDF fallback: no wall-clock reading can change a plan,
  // and two runs must execute the same schedule. Heterogeneous speeds,
  // placement constraints, machine failures and rack bursts make the
  // fallback plan around frozen, pinned and parked work.
  SyntheticWorkloadConfig gen;
  gen.num_jobs = 60;
  gen.arrival_rate = 0.02;
  gen.speed_choices = {500, 1000, 2000};
  gen.num_racks = 5;
  gen.locality_prob = 0.3;
  gen.affinity_prob = 0.2;
  gen.seed = 1;
  const Workload w = generate_synthetic_workload(gen);
  sim::SimOptions options;
  options.faults.mtbf_s = 5000.0;
  options.faults.rack_mtbf_s = 20000.0;
  for (const ReplanScope scope :
       {ReplanScope::kAllUnstarted, ReplanScope::kDirtyOnly}) {
    MrcpConfig cfg;
    cfg.solve.time_limit_s = 0.0;
    cfg.replan_scope = scope;
    const sim::SimMetrics first = sim::simulate_mrcp(w, cfg, options);
    const sim::SimMetrics second = sim::simulate_mrcp(w, cfg, options);
    const bool incremental = scope == ReplanScope::kDirtyOnly;
    EXPECT_GT(first.degradation.fallback, 0u) << "incremental " << incremental;
    EXPECT_GT(first.failure.resource_failures, 0u)
        << "incremental " << incremental;
    EXPECT_EQ(sim::execution_to_csv(first.executed, w),
              sim::execution_to_csv(second.executed, w))
        << "incremental " << incremental;
    EXPECT_EQ(first.degradation.fallback, second.degradation.fallback);
  }
}

// ---- Parking when no resource can host the work ----

TEST(DegradedMode, AllResourcesDownParksAndRecovers) {
  MrcpConfig cfg;
  cfg.validate_plans = true;
  cfg.solve.time_limit_s = 2.0;
  MrcpRm rm(Cluster::homogeneous(1, 1, 1), cfg);
  rm.submit(make_job(0, Time{0}, Time{0}, Time{100'000}, {Time{100}}, {Time{50}}), Time{0});
  rm.reschedule(Time{0});

  // Pre-degradation this aborted ("every resource is down"); now the
  // work is parked until a repair. The failure hands back both reset
  // assignments as they stood: the running map and the planned reduce.
  const std::vector<PlannedTask> reset = rm.handle_resource_down(0, Time{10});
  ASSERT_EQ(reset.size(), 2u);
  EXPECT_EQ(reset[0].task_index, 0);
  EXPECT_EQ(reset[0].type, TaskType::kMap);
  EXPECT_EQ(reset[0].start, Time{0});
  EXPECT_EQ(reset[0].end, Time{100});
  EXPECT_TRUE(reset[0].started);
  EXPECT_EQ(reset[1].task_index, 1);
  EXPECT_EQ(reset[1].type, TaskType::kReduce);
  EXPECT_EQ(reset[1].start, Time{100});
  EXPECT_FALSE(reset[1].started);
  for (const PlannedTask& pt : reset) {
    EXPECT_EQ(pt.job, 0);
    EXPECT_EQ(pt.resource, 0);
  }
  const Plan& parked = rm.reschedule(Time{10});
  EXPECT_TRUE(parked.tasks.empty());
  const std::vector<std::pair<JobId, int>> both = {{0, 0}, {0, 1}};
  EXPECT_EQ(parked.parked, both);
  EXPECT_EQ(rm.ledger().records().back().outcome, InvocationOutcome::kParked);
  EXPECT_EQ(rm.ledger().records().back().parked_jobs, 1u);
  EXPECT_GE(rm.stats().jobs_parked, 1u);
  // Parked work retries on a timer (5 s) even without a repair event.
  EXPECT_EQ(rm.next_deferred_release(),
            Time{10} + seconds_to_ticks(std::int64_t{5}));

  rm.handle_resource_up(0, Time{100});
  const Plan& repaired = rm.reschedule(Time{100});
  EXPECT_TRUE(repaired.parked.empty());
  EXPECT_EQ(repaired.tasks.size(), 2u);
  EXPECT_EQ(rm.ledger().records().back().outcome,
            InvocationOutcome::kCpPrimary);

  rm.reschedule(Time{1'000'000});
  EXPECT_EQ(rm.stats().jobs_completed, 1u);
}

// ---- Frozen assignments must not outlive their predecessors ----

TEST(DegradedMode, FailureDemotesFrozenReduceWhoseMapWasKilled) {
  // r0 is map-only, so the reduce always lands on r1 and survives the
  // r0 failure with its (now stale) planned start. After the primary
  // solve aborts, the fallback plans the full model: the reduce is free
  // again and must not start before the killed map's re-run completes.
  Cluster c;
  c.add_resource(1, 0);
  c.add_resource(1, 1);
  MrcpConfig cfg = degraded_config();  // validate_plans aborts on a
                                       // precedence-violating plan
  MrcpRm rm(c, cfg);

  // Deadline forces the two maps in parallel across r0/r1.
  rm.submit(make_job(0, Time{0}, Time{0}, Time{160}, {Time{100}, Time{100}}, {Time{50}}), Time{0});
  const Plan& p1 = rm.reschedule(Time{0});
  bool map_on_r0 = false;
  for (const PlannedTask& pt : p1.tasks) {
    map_on_r0 |= pt.type == TaskType::kMap && pt.resource == 0;
  }
  ASSERT_TRUE(map_on_r0);

  rm.handle_resource_down(0, Time{50});
  const Plan& p2 = rm.reschedule(Time{50});
  EXPECT_EQ(rm.ledger().records().back().outcome, InvocationOutcome::kFallback);
  Time latest_map_end;
  const PlannedTask* reduce = nullptr;
  for (const PlannedTask& pt : p2.tasks) {
    EXPECT_NE(pt.resource, 0);  // nothing resurrects onto the down node
    if (pt.type == TaskType::kMap) {
      latest_map_end = std::max(latest_map_end, pt.end);
    } else {
      reduce = &pt;
    }
  }
  ASSERT_NE(reduce, nullptr);
  // Killed map re-runs after r1's own map: reduce starts at 200, not at
  // its stale planned 100.
  EXPECT_GE(reduce->start, latest_map_end);
  EXPECT_GE(reduce->start, Time{200});
}

TEST(DegradedMode, MidEpochFailureDuringFallbackEpochStaysValid) {
  // Fallback-produced plan (tiny budget), then a failure mid-epoch: the
  // recovery pass — another fallback — must never resurrect assignments
  // of the down resource or schedule a reduce before its maps.
  // validate_plans makes any such violation fatal, so completing the run
  // is the assertion.
  MrcpConfig cfg = degraded_config();
  MrcpRm rm(Cluster::homogeneous(2, 1, 1), cfg);
  std::vector<Time> maps(6, Time{100});
  rm.submit(make_job(0, Time{0}, Time{0}, Time{5'000}, maps, {Time{50}}), Time{0});
  const Plan& p1 = rm.reschedule(Time{0});
  EXPECT_EQ(rm.ledger().records().back().outcome, InvocationOutcome::kFallback);
  EXPECT_FALSE(p1.tasks.empty());

  rm.handle_resource_down(0, Time{150});
  const Plan& p2 = rm.reschedule(Time{150});
  for (const PlannedTask& pt : p2.tasks) {
    if (!pt.started) {
      EXPECT_NE(pt.resource, 0);
    }
  }
  rm.handle_resource_up(0, Time{400});
  rm.reschedule(Time{400});
  rm.reschedule(Time{1'000'000});
  EXPECT_EQ(rm.stats().jobs_completed, 1u);
}

// ---- An arrival next to parked work ----

class ArrivalNextToParkedWork : public ::testing::TestWithParam<ReplanScope> {};

TEST_P(ArrivalNextToParkedWork, JoinsThePlanAtOnce) {
  // Job 0 is rack-local to rack 0, whose only machine fails: the job is
  // parked. Job 1 arrives at that same instant and fits in rack 1; a
  // parked job elsewhere must not hold it back from the plan.
  Cluster c;
  c.add_resource_hetero(1, 1, 0, 1000, /*rack=*/0);
  c.add_resource_hetero(1, 1, 0, 1000, /*rack=*/1);
  MrcpConfig cfg;
  cfg.validate_plans = true;
  cfg.solve.time_limit_s = 2.0;
  cfg.replan_scope = GetParam();
  MrcpRm rm(c, cfg);

  Job local = make_job(0, Time{0}, Time{0}, Time{100'000}, {Time{100}}, {});
  for (Task& t : local.map_tasks) t.racks = {0};
  rm.submit(local, Time{0});
  rm.reschedule(Time{0});
  rm.handle_resource_down(0, Time{10});
  const Plan& parked = rm.reschedule(Time{10});
  ASSERT_EQ(parked.parked.size(), 1u);

  rm.submit(make_job(1, Time{10}, Time{10}, Time{100'000}, {Time{100}}, {}),
            Time{10});
  const Plan& plan = rm.reschedule(Time{10});
  const std::vector<std::pair<JobId, int>> only_local = {{0, 0}};
  EXPECT_EQ(plan.parked, only_local);
  ASSERT_EQ(plan.tasks.size(), 1u);
  EXPECT_EQ(plan.tasks[0].job, 1);
  EXPECT_EQ(plan.tasks[0].resource, 1);
  // The only wakeup left is the parked job's retry, not a release of job 1.
  EXPECT_EQ(rm.next_deferred_release(),
            Time{10} + seconds_to_ticks(std::int64_t{5}));
}

INSTANTIATE_TEST_SUITE_P(BothScopes, ArrivalNextToParkedWork,
                         ::testing::Values(ReplanScope::kAllUnstarted,
                                           ReplanScope::kDirtyOnly),
                         [](const auto& param_info) {
                           return param_info.param ==
                                          ReplanScope::kAllUnstarted
                                      ? std::string("AllUnstarted")
                                      : std::string("DirtyOnly");
                         });

// ---- Park-retry wakeup clamps (saturating Ticks arithmetic) ----

TEST(DegradedMode, ParkRetrySaturatesAtTheHorizon) {
  // A park within the 5 s retry delay of the horizon pins the retry
  // wakeup at kMaxTime — far future, but still ordered after `now`, so
  // the wakeup neither wraps past the horizon nor fires immediately in a
  // busy loop. The job is parked before any model is built, so nothing
  // else computes near the horizon.
  MrcpConfig cfg;
  cfg.validate_plans = true;
  cfg.solve.time_limit_s = 2.0;
  cfg.solve.seed = 1;
  MrcpRm rm(Cluster::homogeneous(1, 1, 1), cfg);
  const Time now = kMaxTime - Time{1'000};
  rm.submit(make_job(0, Time{0}, Time{0}, Time{100'000}, {Time{100}}, {}),
            now);
  rm.handle_resource_down(0, now);
  const Plan& parked = rm.reschedule(now);
  EXPECT_EQ(parked.parked.size(), 1u);
  EXPECT_EQ(rm.next_deferred_release(), kMaxTime);
  EXPECT_GT(rm.next_deferred_release(), now);
}

}  // namespace
}  // namespace mrcp
