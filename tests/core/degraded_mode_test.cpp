// End-to-end tests of the graceful-degradation pipeline
// (docs/degraded_mode.md): the solver watchdog and SolveStatus, the
// escalation ladder and its ledger attribution, unplaceable-job parking,
// arrival backpressure, and the frozen-assignment demotion that keeps
// failure recovery sound in degraded epochs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "core/degradation.h"
#include "core/fallback_scheduler.h"
#include "core/mrcp_rm.h"
#include "cp/solver.h"
#include "sim/cluster_sim.h"

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

TEST(SolveStatus, SeededSolveUnderExpiredWatchdogReturnsSeedAsFeasible) {
  // The parachute semantics of the retry rungs: an aborted-but-seeded
  // solve hands the warm start back (valid, kFeasible) and reports zero
  // solutions of its own — which is how the ladder tells a genuine
  // retry success from an echo of the EDF incumbent. The deadlines are
  // deliberately unmeetable (2400 ticks of map work on 4 slots): a seed
  // with zero late jobs would be proved optimal by bound, and rightly
  // reported as kOptimal even when the search itself never ran.
  cp::Model m;
  m.add_resource(4, 4);
  for (int j = 0; j < 6; ++j) {
    const cp::CpJobIndex cj = m.add_job(Time{0}, Time{150 + 10 * j}, j);
    for (int t = 0; t < 8; ++t) m.add_task(cj, cp::Phase::kMap, Time{50});
    for (int t = 0; t < 2; ++t) m.add_task(cj, cp::Phase::kReduce, Time{30});
  }
  const cp::Solution seed = fallback_schedule(m);
  ASSERT_TRUE(seed.valid);
  ASSERT_GT(seed.num_late, 0);  // premise: the seed is not optimal-by-bound
  cp::SolveParams params;
  params.time_limit_s = 1e-9;
  const Deadline deadline(0.0);
  params.hard_deadline = &deadline;
  const cp::SolveResult r = cp::solve(m, params, &seed);
  ASSERT_TRUE(r.best.valid);
  EXPECT_EQ(r.status, cp::SolveStatus::kFeasible);
  EXPECT_EQ(r.stats.solutions, 0);
  EXPECT_EQ(r.best.num_late, seed.num_late);
}

// ---- Escalation ladder + ledger attribution ----

TEST(DegradedMode, TinyBudgetFallsBackAndLedgerAttributes) {
  MrcpConfig cfg = degraded_config();
  cfg.max_solve_retries = 0;  // primary -> fallback directly
  cfg.backpressure_hold = Time{1'000};
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

  // Unchanged live set while degraded: the next invocation republishes
  // instead of re-solving.
  rm.reschedule(Time{1});
  ASSERT_EQ(rm.ledger().records().size(), 2u);
  EXPECT_EQ(rm.ledger().records()[1].outcome, InvocationOutcome::kSkipped);
  EXPECT_EQ(rm.ledger().records()[1].attempts, 0);

  // Arrivals during a degraded streak are backpressure-deferred.
  rm.submit(make_job(2, Time{2}, Time{2}, Time{3'000}, {Time{50}}, {}), Time{2});
  EXPECT_EQ(rm.stats().jobs_backpressured, 1u);
  EXPECT_EQ(rm.degradation_counts().jobs_backpressured, 1u);
  EXPECT_EQ(rm.next_deferred_release(), Time{2} + cfg.backpressure_hold);

  // At the hold's expiry the deferred job joins a full (dirty) pass.
  rm.reschedule(Time{2} + cfg.backpressure_hold);
  ASSERT_EQ(rm.ledger().records().size(), 3u);
  EXPECT_EQ(rm.ledger().records()[2].outcome, InvocationOutcome::kFallback);

  // Far in the future everything has completed: idle invocation, and
  // every invocation is attributed to exactly one outcome.
  rm.reschedule(Time{10'000'000});
  const DegradationCounts& counts = rm.ledger().counts();
  EXPECT_EQ(counts.idle, 1u);
  EXPECT_EQ(counts.invocations(), rm.stats().invocations);
  EXPECT_EQ(counts.invocations(), rm.ledger().records().size());
  EXPECT_EQ(rm.stats().jobs_completed, 3u);
}

TEST(DegradedMode, RetryRungsAreAttemptedBeforeFallback) {
  MrcpConfig cfg = degraded_config();
  cfg.max_solve_retries = 2;
  MrcpRm rm(Cluster::homogeneous(2, 2, 2), cfg);
  std::vector<Time> maps(10, Time{50});
  rm.submit(make_job(0, Time{0}, Time{0}, Time{2'000}, maps, {Time{30}, Time{30}}), Time{0});
  rm.reschedule(Time{0});
  ASSERT_EQ(rm.ledger().records().size(), 1u);
  const InvocationRecord& rec = rm.ledger().records()[0];
  // Degraded either way; if the invocation deadline had room for rungs,
  // they were counted as attempts on top of the primary solve.
  EXPECT_TRUE(rec.outcome == InvocationOutcome::kFallback ||
              rec.outcome == InvocationOutcome::kCpRetry);
  EXPECT_GE(rec.attempts, 1);
  EXPECT_LE(rec.attempts, 1 + cfg.max_solve_retries);
  EXPECT_EQ(rm.stats().solve_attempts, static_cast<std::uint64_t>(rec.attempts));
}

TEST(DegradedModeDeathTest, FallbackDisabledRestoresFatalBehaviour) {
  MrcpConfig cfg = degraded_config();
  cfg.fallback_enabled = false;
  MrcpRm rm(Cluster::homogeneous(2, 2, 2), cfg);
  std::vector<Time> maps(10, Time{50});
  rm.submit(make_job(0, Time{0}, Time{0}, Time{2'000}, maps, {Time{30}, Time{30}}), Time{0});
  EXPECT_DEATH(rm.reschedule(Time{0}), "solver returned no solution");
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
  EXPECT_GT(d.jobs_backpressured, 0u);
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
  // Parked work retries on a timer even without a repair event.
  EXPECT_EQ(rm.next_deferred_release(), Time{10} + cfg.park_retry_delay);

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
  // solve aborts, the retry rungs re-collect the live set with every
  // planned assignment frozen: that collection must demote the reduce
  // back to free rather than pin a reduce that would start before the
  // killed map's re-run completes.
  Cluster c;
  c.add_resource(1, 0);
  c.add_resource(1, 1);
  MrcpConfig cfg = degraded_config();  // validate_plans aborts on a
                                       // precedence-violating plan
  // Every solve's own watchdog still expires at once, but the invocation
  // watchdog is wide, so each invocation runs all its retry rungs.
  cfg.solver_deadline_s = 60.0;
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
  // At least one retry rung ran, so the plan below is the frozen model's.
  EXPECT_GE(rm.ledger().records().back().attempts, 2);
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
  // recovery pass — retry rungs included, which freeze surviving
  // assignments — must never resurrect assignments of the down resource
  // or schedule a reduce before its maps. validate_plans makes any such
  // violation fatal, so completing the run is the assertion.
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

// ---- Backoff growth clamps (saturating Ticks arithmetic) ----

TEST(DegradedMode, BackpressureHoldStreakIsCappedAtEight) {
  // Twelve consecutive degraded invocations, then an arrival: the hold
  // must scale with min(streak, 8), not the raw streak — unbounded
  // doubling would defer a burst past the simulation horizon.
  MrcpConfig cfg = degraded_config();
  cfg.backpressure_hold = Time{1000};
  MrcpRm rm(Cluster::homogeneous(2, 1, 1), cfg);
  rm.submit(make_job(0, Time{0}, Time{0}, Time{10'000'000}, {Time{500'000}},
                     {Time{100'000}}),
            Time{0});
  rm.reschedule(Time{0});  // tiny budget: fallback, streak = 1
  for (int i = 1; i <= 11; ++i) {
    // Alternate fault events so every invocation is dirty (a clean one
    // would take the backpressure skip and leave the streak unchanged).
    if (i % 2 == 1) {
      rm.handle_resource_down(1, Time{i});
    } else {
      rm.handle_resource_up(1, Time{i});
    }
    rm.reschedule(Time{i});
  }
  // Streak is now 12; the hold still folds at the cap: 8 * 1000 ticks.
  rm.submit(make_job(1, Time{100}, Time{100}, Time{10'000'000}, {Time{1000}},
                     {}),
            Time{100});
  EXPECT_EQ(rm.next_deferred_release(), Time{100} + Time{8000});
}

TEST(DegradedMode, BackpressureHoldSaturatesAtTheHorizon) {
  // An extreme configured hold clamps the release time to kMaxTime
  // instead of wrapping into the past (which would instantly re-release
  // the burst the hold was meant to absorb — or worse, UB).
  MrcpConfig cfg = degraded_config();
  cfg.backpressure_hold = kMaxTime;
  MrcpRm rm(Cluster::homogeneous(1, 1, 1), cfg);
  rm.submit(make_job(0, Time{0}, Time{0}, Time{10'000'000}, {Time{500'000}},
                     {}),
            Time{0});
  rm.reschedule(Time{0});  // streak = 1
  rm.submit(make_job(1, Time{5}, Time{5}, Time{10'000'000}, {Time{1000}}, {}),
            Time{5});
  EXPECT_EQ(rm.next_deferred_release(), kMaxTime);
}

TEST(DegradedMode, ParkRetrySaturatesAtTheHorizon) {
  // park_retry_delay near the horizon pins the retry wakeup at kMaxTime
  // — far future, but still ordered after `now`, so the wakeup neither
  // wraps negative nor fires immediately in a busy loop.
  MrcpConfig cfg;
  cfg.validate_plans = true;
  cfg.solve.time_limit_s = 2.0;
  cfg.solve.seed = 1;
  cfg.park_retry_delay = kMaxTime;
  MrcpRm rm(Cluster::homogeneous(1, 1, 1), cfg);
  rm.submit(make_job(0, Time{0}, Time{0}, Time{100'000}, {Time{100}}, {}),
            Time{0});
  rm.handle_resource_down(0, Time{10});
  const Plan& parked = rm.reschedule(Time{10});
  EXPECT_EQ(parked.parked.size(), 1u);
  EXPECT_EQ(rm.next_deferred_release(), kMaxTime);
  EXPECT_GT(rm.next_deferred_release(), Time{10});
}

TEST(DegradedMode, ExtremeRetryCountDoesNotOverflowTheBudget) {
  // max_solve_retries = 64 would be UB with a naive `1 << retry` budget
  // doubling; the ldexp fold (exponent capped at 40) must survive it.
  // The UBSan CI job turns any reintroduced shift overflow fatal here.
  MrcpConfig cfg = degraded_config();
  cfg.max_solve_retries = 64;
  MrcpRm rm(Cluster::homogeneous(2, 2, 2), cfg);
  rm.submit(make_job(0, Time{0}, Time{0}, Time{50'000}, {Time{100}, Time{100}},
                     {Time{50}}),
            Time{0});
  const Plan& plan = rm.reschedule(Time{0});
  EXPECT_FALSE(plan.tasks.empty());
  const InvocationRecord& rec = rm.ledger().records().back();
  EXPECT_NE(rec.outcome, InvocationOutcome::kCpPrimary);
  EXPECT_GE(rec.attempts, 1);
  rm.reschedule(Time{1'000'000});
  EXPECT_EQ(rm.stats().jobs_completed, 1u);
}

}  // namespace
}  // namespace mrcp
