#include "core/mrcp_rm.h"

#include <gtest/gtest.h>

#include <map>

#include "../test_util.h"

namespace mrcp {
namespace {

using testutil::make_job;

MrcpConfig test_config() {
  MrcpConfig c;
  c.validate_plans = true;
  c.solve.time_limit_s = 2.0;
  c.solve.seed = 1;
  return c;
}

const PlannedTask* find_task(const Plan& plan, JobId job, int task_index) {
  for (const PlannedTask& pt : plan.tasks) {
    if (pt.job == job && pt.task_index == task_index) return &pt;
  }
  return nullptr;
}

TEST(MrcpRm, SingleJobPlannedAtEarliestStart) {
  MrcpRm rm(Cluster::homogeneous(2, 1, 1), test_config());
  rm.submit(make_job(0, Time{0}, Time{0}, Time{10000}, {Time{100}, Time{200}}, {Time{300}}), Time{0});
  const Plan& plan = rm.reschedule(Time{0});
  ASSERT_EQ(plan.tasks.size(), 3u);
  const PlannedTask* m0 = find_task(plan, 0, 0);
  const PlannedTask* m1 = find_task(plan, 0, 1);
  const PlannedTask* r0 = find_task(plan, 0, 2);
  ASSERT_NE(m0, nullptr);
  ASSERT_NE(m1, nullptr);
  ASSERT_NE(r0, nullptr);
  EXPECT_EQ(m0->start, Time{0});
  EXPECT_EQ(m1->start, Time{0});
  EXPECT_GE(r0->start, Time{200});  // after the longest map
}

TEST(MrcpRm, EmptyRescheduleProducesEmptyPlan) {
  MrcpRm rm(Cluster::homogeneous(1, 1, 1), test_config());
  const Plan& plan = rm.reschedule(Time{100});
  EXPECT_TRUE(plan.tasks.empty());
  EXPECT_EQ(plan.planned_at, Time{100});
}

TEST(MrcpRm, EpochIncrementsPerInvocation) {
  MrcpRm rm(Cluster::homogeneous(1, 1, 1), test_config());
  const std::uint64_t e1 = rm.reschedule(Time{0}).epoch;
  const std::uint64_t e2 = rm.reschedule(Time{1}).epoch;
  EXPECT_EQ(e2, e1 + 1);
}

TEST(MrcpRm, StartedTaskIsPinnedAcrossReschedules) {
  MrcpRm rm(Cluster::homogeneous(1, 1, 1), test_config());
  rm.submit(make_job(0, Time{0}, Time{0}, Time{100000}, {Time{500}}, {}), Time{0});
  const Plan& p1 = rm.reschedule(Time{0});
  const PlannedTask* t1 = find_task(p1, 0, 0);
  ASSERT_NE(t1, nullptr);
  EXPECT_EQ(t1->start, Time{0});
  // A task planned to start at the invocation instant counts as started
  // (paper Table 2 line 7: start <= current time).
  EXPECT_TRUE(t1->started);

  // Re-plan mid-execution with a competing job: the running task must
  // stay exactly where it was.
  rm.submit(make_job(1, Time{100}, Time{100}, Time{100000}, {Time{50}}, {}), Time{100});
  const Plan& p2 = rm.reschedule(Time{100});
  const PlannedTask* t2 = find_task(p2, 0, 0);
  ASSERT_NE(t2, nullptr);
  EXPECT_TRUE(t2->started);
  EXPECT_EQ(t2->start, Time{0});
  EXPECT_EQ(t2->end, Time{500});
  // The new job waits for the single map slot.
  const PlannedTask* n = find_task(p2, 1, 0);
  ASSERT_NE(n, nullptr);
  EXPECT_GE(n->start, Time{500});
}

TEST(MrcpRm, CompletedTasksDroppedAndJobRemoved) {
  MrcpRm rm(Cluster::homogeneous(1, 1, 1), test_config());
  rm.submit(make_job(0, Time{0}, Time{0}, Time{100000}, {Time{500}}, {Time{300}}), Time{0});
  rm.reschedule(Time{0});
  EXPECT_EQ(rm.live_jobs(), 1u);
  // Map runs [0,500), reduce [500,800). At t=900 everything completed.
  const Plan& plan = rm.reschedule(Time{900});
  EXPECT_TRUE(plan.tasks.empty());
  EXPECT_EQ(rm.live_jobs(), 0u);
  EXPECT_EQ(rm.stats().jobs_completed, 1u);
  EXPECT_EQ(rm.stats().jobs_completed_late, 0u);
}

TEST(MrcpRm, PartiallyCompletedJobKeepsRemainingTasks) {
  MrcpRm rm(Cluster::homogeneous(1, 1, 1), test_config());
  rm.submit(make_job(0, Time{0}, Time{0}, Time{100000}, {Time{500}}, {Time{300}}), Time{0});
  rm.reschedule(Time{0});
  // At t=600 the map is done, the reduce (500-800) is running.
  const Plan& plan = rm.reschedule(Time{600});
  ASSERT_EQ(plan.tasks.size(), 1u);
  EXPECT_EQ(plan.tasks[0].task_index, 1);
  EXPECT_TRUE(plan.tasks[0].started);
  EXPECT_EQ(plan.tasks[0].start, Time{500});
}

TEST(MrcpRm, LateJobCountedInStats) {
  MrcpRm rm(Cluster::homogeneous(1, 1, 1), test_config());
  // Deadline impossible: 100 ticks for a 500-tick map.
  rm.submit(make_job(0, Time{0}, Time{0}, Time{100}, {Time{500}}, {}), Time{0});
  rm.reschedule(Time{0});
  rm.reschedule(Time{1000});
  EXPECT_EQ(rm.stats().jobs_completed, 1u);
  EXPECT_EQ(rm.stats().jobs_completed_late, 1u);
}

TEST(MrcpRm, EarliestStartClampedToNow) {
  MrcpRm rm(Cluster::homogeneous(1, 1, 1), test_config());
  MrcpConfig cfg = test_config();
  cfg.defer_future_jobs = false;
  MrcpRm rm2(Cluster::homogeneous(1, 1, 1), cfg);
  // Job arrived earlier with s_j = 50; rescheduling at t=200 must not
  // schedule it in the past.
  rm2.submit(make_job(0, Time{0}, Time{50}, Time{100000}, {Time{10}}, {}), Time{0});
  const Plan& plan = rm2.reschedule(Time{200});
  const PlannedTask* t = find_task(plan, 0, 0);
  ASSERT_NE(t, nullptr);
  EXPECT_GE(t->start, Time{200});
}

TEST(MrcpRm, FutureEarliestStartRespected) {
  MrcpConfig cfg = test_config();
  cfg.defer_future_jobs = false;  // keep the job in the model immediately
  MrcpRm rm(Cluster::homogeneous(1, 1, 1), cfg);
  rm.submit(make_job(0, Time{0}, Time{5000}, Time{100000}, {Time{10}}, {}), Time{0});
  const Plan& plan = rm.reschedule(Time{0});
  const PlannedTask* t = find_task(plan, 0, 0);
  ASSERT_NE(t, nullptr);
  EXPECT_GE(t->start, Time{5000});
}

TEST(MrcpRm, DeferralQueueHoldsFarFutureJobs) {
  MrcpConfig cfg = test_config();
  cfg.defer_future_jobs = true;
  cfg.deferral_window = Time{0};
  MrcpRm rm(Cluster::homogeneous(1, 1, 1), cfg);
  rm.submit(make_job(0, Time{0}, Time{5000}, Time{100000}, {Time{10}}, {}), Time{0});
  EXPECT_EQ(rm.next_deferred_release(), Time{5000});
  const Plan& p1 = rm.reschedule(Time{0});
  EXPECT_TRUE(p1.tasks.empty());  // deferred: not in the model yet
  const Plan& p2 = rm.reschedule(Time{5000});
  EXPECT_EQ(p2.tasks.size(), 1u);
  EXPECT_EQ(rm.next_deferred_release(), kNoTime);
}

TEST(MrcpRm, DeferralWindowReleasesEarly) {
  MrcpConfig cfg = test_config();
  cfg.deferral_window = Time{1000};
  MrcpRm rm(Cluster::homogeneous(1, 1, 1), cfg);
  rm.submit(make_job(0, Time{0}, Time{5000}, Time{100000}, {Time{10}}, {}), Time{0});
  EXPECT_EQ(rm.next_deferred_release(), Time{4000});
  const Plan& plan = rm.reschedule(Time{4000});
  ASSERT_EQ(plan.tasks.size(), 1u);
  EXPECT_GE(plan.tasks[0].start, Time{5000});  // still honours s_j
}

TEST(MrcpRm, NewUrgentJobPreemptsPlannedButUnstartedWork) {
  // Job 0 (loose deadline) is planned first; before anything starts, an
  // urgent job 1 arrives at the same instant the plan was made. The RM
  // re-maps job 0's unstarted tasks behind job 1.
  MrcpConfig cfg = test_config();
  MrcpRm rm(Cluster::homogeneous(1, 1, 1), cfg);
  rm.submit(make_job(0, Time{0}, Time{0}, Time{100000}, {Time{500}}, {}), Time{0});
  rm.reschedule(Time{0});
  // Immediately after (same tick) job 1 with a tight deadline arrives.
  // Job 0's map has started at t=0 (start <= now), so it is pinned; this
  // test uses t shifted by the fact the map started. Instead check at a
  // *new* arrival after the first map would complete.
  rm.submit(make_job(1, Time{100}, Time{100}, Time{700}, {Time{400}}, {}), Time{100});
  const Plan& p = rm.reschedule(Time{100});
  const PlannedTask* t0 = find_task(p, 0, 0);
  const PlannedTask* t1 = find_task(p, 1, 0);
  ASSERT_NE(t0, nullptr);
  ASSERT_NE(t1, nullptr);
  // Job 0's map started at 0 and is pinned; job 1 runs right after and
  // meets its deadline (500 + 400 = 900 > 700 -> job 1 is late; with a
  // single slot nothing better exists).
  EXPECT_TRUE(t0->started);
  EXPECT_EQ(t1->start, Time{500});
}

TEST(MrcpRm, DirectModeMatchesSeparationOnSmallCase) {
  MrcpConfig combined_cfg = test_config();
  combined_cfg.use_separation = true;
  MrcpConfig direct_cfg = test_config();
  direct_cfg.use_separation = false;

  const Job job = make_job(0, Time{0}, Time{0}, Time{10000}, {Time{100}, Time{200}, Time{150}}, {Time{300}});
  MrcpRm rm_a(Cluster::homogeneous(2, 2, 1), combined_cfg);
  MrcpRm rm_b(Cluster::homogeneous(2, 2, 1), direct_cfg);
  rm_a.submit(job, Time{0});
  rm_b.submit(job, Time{0});
  const Plan& pa = rm_a.reschedule(Time{0});
  const Plan& pb = rm_b.reschedule(Time{0});
  ASSERT_EQ(pa.tasks.size(), pb.tasks.size());
  // Both must produce a plan completing the job by max map end + reduce.
  Time end_a;
  Time end_b;
  for (const PlannedTask& t : pa.tasks) end_a = std::max(end_a, t.end);
  for (const PlannedTask& t : pb.tasks) end_b = std::max(end_b, t.end);
  EXPECT_EQ(end_a, end_b);
}

TEST(MrcpRm, StatsAccumulate) {
  MrcpRm rm(Cluster::homogeneous(1, 1, 1), test_config());
  rm.submit(make_job(0, Time{0}, Time{0}, Time{100000}, {Time{10}}, {}), Time{0});
  rm.reschedule(Time{0});
  EXPECT_EQ(rm.stats().invocations, 1u);
  EXPECT_EQ(rm.stats().jobs_submitted, 1u);
  EXPECT_GT(rm.stats().total_sched_seconds, 0.0);
  EXPECT_GE(rm.stats().max_live_tasks, 1u);
  EXPECT_GT(rm.stats().average_sched_seconds_per_job(), 0.0);
}

TEST(MrcpRm, AllUnstartedScopeCanMovePlannedTasks) {
  // Same scenario under the Table 2 default: job 0's queued (unstarted)
  // third task may be displaced by the urgent arrival.
  MrcpRm rm(Cluster::homogeneous(2, 1, 1), test_config());
  rm.submit(make_job(0, Time{0}, Time{0}, Time{1000000}, {Time{500}, Time{600}, Time{700}}, {}), Time{0});
  rm.reschedule(Time{0});
  rm.submit(make_job(1, Time{100}, Time{100}, Time{2000}, {Time{300}}, {}), Time{100});
  const Plan& p2 = rm.reschedule(Time{100});
  const PlannedTask* urgent = nullptr;
  for (const PlannedTask& pt : p2.tasks) {
    if (pt.job == 1) urgent = &pt;
  }
  ASSERT_NE(urgent, nullptr);
  // The urgent job should be scheduled at the earliest slot release
  // (t=500, when the first map ends), not behind job 0's queued work.
  EXPECT_LE(urgent->start, Time{500});
}

TEST(MrcpRm, RejectsDuplicateJobIds) {
  MrcpRm rm(Cluster::homogeneous(1, 1, 1), test_config());
  rm.submit(make_job(0, Time{0}, Time{0}, Time{100000}, {Time{10}}, {}), Time{0});
  EXPECT_DEATH(rm.submit(make_job(0, Time{0}, Time{0}, Time{100000}, {Time{10}}, {}), Time{0}),
               "duplicate job id");
}

}  // namespace
}  // namespace mrcp
