// Incremental rescheduling (ReplanScope::kDirtyOnly, docs/incremental.md):
// dirty-set bookkeeping, the empty-dirty fast path, frozen-boundary
// soundness under faults, parked-work re-entry, the shared pipeline of
// both replan scopes, and a randomized differential requiring an RM
// restored from encode_state() to publish the byte-identical next plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/degradation.h"
#include "core/mrcp_rm.h"
#include "mapreduce/synthetic_workload.h"
#include "sim/cluster_sim.h"

#include "../test_util.h"

namespace mrcp {
namespace {

using testutil::make_job;
using testutil::make_workload;

MrcpConfig incremental_config(
    ReplanScope scope = ReplanScope::kDirtyOnly) {
  MrcpConfig cfg;
  cfg.replan_scope = scope;
  cfg.validate_plans = true;
  cfg.defer_future_jobs = false;
  cfg.solve.time_limit_s = 5.0;  // generous: no watchdog nondeterminism
  cfg.solve.improvement_fails = 200;
  cfg.solve.lns_iterations = 2;
  return cfg;
}

bool plans_equal(const Plan& a, const Plan& b) {
  if (a.tasks.size() != b.tasks.size()) return false;
  if (a.parked != b.parked) return false;
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    const PlannedTask& x = a.tasks[i];
    const PlannedTask& y = b.tasks[i];
    if (x.job != y.job || x.task_index != y.task_index || x.type != y.type ||
        x.resource != y.resource || x.start != y.start || x.end != y.end ||
        x.started != y.started) {
      return false;
    }
  }
  return true;
}

/// The planned (resource, start) of one task, for frozen-boundary checks.
const PlannedTask* find_task(const Plan& plan, JobId job, int task_index) {
  for (const PlannedTask& pt : plan.tasks) {
    if (pt.job == job && pt.task_index == task_index) return &pt;
  }
  return nullptr;
}

// ---- Fast path and dirty-set bookkeeping ----

TEST(Incremental, EmptyDirtySetRepublishesWithoutSolving) {
  MrcpRm rm(Cluster::homogeneous(2, 2, 2), incremental_config());
  rm.submit(make_job(0, Time{0}, Time{1'000}, Time{50'000}, {Time{100}, Time{100}}, {Time{80}}), Time{0});
  rm.submit(make_job(1, Time{0}, Time{1'000}, Time{60'000}, {Time{100}}, {Time{80}}), Time{0});
  const Plan p1 = rm.reschedule(Time{0});
  EXPECT_EQ(rm.ledger().records().back().outcome, InvocationOutcome::kCpPrimary);
  EXPECT_TRUE(rm.dirty_jobs().empty());

  // Nothing happened: the next invocation must not solve at all.
  const Plan& p2 = rm.reschedule(Time{10});
  const InvocationRecord& rec = rm.ledger().records().back();
  EXPECT_EQ(rec.outcome, InvocationOutcome::kSkipped);
  EXPECT_EQ(rec.attempts, 0);
  EXPECT_EQ(p2.epoch, p1.epoch + 1);
  EXPECT_TRUE(plans_equal(p1, p2));
  EXPECT_EQ(rm.stats().solve_attempts, 1u);

  rm.reschedule(Time{1'000'000});
  EXPECT_EQ(rm.stats().jobs_completed, 2u);
}

TEST(Incremental, ArrivalResolvesOnlyTheNewJobAgainstFrozenBoundary) {
  MrcpRm rm(Cluster::homogeneous(2, 2, 2), incremental_config());
  rm.submit(make_job(0, Time{0}, Time{1'000}, Time{50'000}, {Time{100}, Time{100}}, {Time{80}}), Time{0});
  rm.submit(make_job(1, Time{0}, Time{1'000}, Time{60'000}, {Time{100}}, {Time{80}}), Time{0});
  const Plan p1 = rm.reschedule(Time{0});

  rm.submit(make_job(2, Time{10}, Time{1'000}, Time{70'000}, {Time{100}}, {Time{80}}), Time{10});
  EXPECT_EQ(rm.dirty_jobs().size(), 1u);
  EXPECT_EQ(*rm.dirty_jobs().begin(), 2);
  const Plan& p2 = rm.reschedule(Time{10});

  const InvocationRecord& rec = rm.ledger().records().back();
  EXPECT_EQ(rec.outcome, InvocationOutcome::kCpPrimary);
  EXPECT_EQ(rec.dirty_jobs, 1u);
  // Every task of jobs 0/1 starts in the future and stays frozen.
  EXPECT_EQ(rec.frozen_tasks, 5u);
  for (const PlannedTask& before : p1.tasks) {
    const PlannedTask* after = find_task(p2, before.job, before.task_index);
    ASSERT_NE(after, nullptr);
    EXPECT_EQ(after->resource, before.resource);
    EXPECT_EQ(after->start, before.start);
  }
  EXPECT_NE(find_task(p2, 2, 0), nullptr);
  EXPECT_EQ(rm.stats().dirty_promotions, 0u);
}

TEST(Incremental, LedgerRecordsPortfolioProvenance) {
  MrcpRm rm(Cluster::homogeneous(2, 2, 2), incremental_config());
  rm.submit(make_job(0, Time{0}, Time{1'000}, Time{50'000}, {Time{100}, Time{100}}, {Time{80}}), Time{0});
  rm.submit(make_job(1, Time{0}, Time{1'000}, Time{60'000}, {Time{100}}, {Time{80}}), Time{0});
  rm.reschedule(Time{0});
  // Loose deadlines: the first portfolio member is already at the root
  // bound (zero late), so no other member runs.
  const InvocationRecord first = rm.ledger().records().back();
  EXPECT_EQ(first.outcome, InvocationOutcome::kCpPrimary);
  EXPECT_EQ(first.portfolio_members_run, 1);
  EXPECT_TRUE(first.portfolio_stopped_at_bound);

  // Re-solving one job against the frozen boundary stops at the bound
  // the same way.
  rm.mark_dirty(0);
  rm.reschedule(Time{10});
  const InvocationRecord& again = rm.ledger().records().back();
  EXPECT_EQ(again.frozen_tasks, 2u);
  EXPECT_EQ(again.portfolio_members_run, 1);
  EXPECT_TRUE(again.portfolio_stopped_at_bound);
}

TEST(Incremental, EmptyFrozenBoundaryPublishesTheAllUnstartedPlan) {
  // With every job dirty the live set holds no frozen task, so the
  // incremental scope takes the very pipeline of paper Table 2 — §V.D
  // combined model included — and must publish the identical plan.
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    RandomStream rng(seed, 13);
    const Cluster cluster = Cluster::homogeneous(3, 2, 2);
    MrcpRm a(cluster, incremental_config(ReplanScope::kAllUnstarted));
    MrcpRm b(cluster, incremental_config(ReplanScope::kDirtyOnly));
    for (JobId id = 0; id < 6; ++id) {
      const Job job = make_job(id, Time{0}, Time{rng.uniform_int(0, 300)},
                               Time{rng.uniform_int(400, 1'500)},
                               {Time{rng.uniform_int(50, 400)},
                                Time{rng.uniform_int(50, 400)}},
                               {Time{rng.uniform_int(50, 300)}});
      a.submit(job, Time{0});
      b.submit(job, Time{0});
    }
    ASSERT_TRUE(plans_equal(a.reschedule(Time{0}), b.reschedule(Time{0})))
        << "seed " << seed;
    EXPECT_EQ(b.ledger().records().back().frozen_tasks, 0u);
  }
}

TEST(IncrementalDeathTest, MarkDirtyOfUnknownJobIsFatal) {
  MrcpRm rm(Cluster::homogeneous(1, 1, 1), incremental_config());
  EXPECT_DEATH(rm.mark_dirty(7), "non-active job");
}

// ---- Frozen-boundary soundness under faults ----

TEST(Incremental, FaultDirtiesAffectedJobsAndReplansThemSoundly) {
  // r0 is map-only, so job 0's reduce lands on r1 and survives the r0
  // failure with a stale planned start. In kDirtyOnly mode the fault
  // dirties the whole job, so the reduce is re-solved — it must wait for
  // the killed map's re-run (per-job freezing never pins it).
  Cluster c;
  c.add_resource(1, 0);
  c.add_resource(1, 1);
  MrcpRm rm(c, incremental_config());
  rm.submit(make_job(0, Time{0}, Time{0}, Time{160}, {Time{100}, Time{100}}, {Time{50}}), Time{0});
  const Plan& p1 = rm.reschedule(Time{0});
  bool map_on_r0 = false;
  for (const PlannedTask& pt : p1.tasks) {
    map_on_r0 |= pt.type == TaskType::kMap && pt.resource == 0;
  }
  ASSERT_TRUE(map_on_r0);

  rm.handle_resource_down(0, Time{50});
  EXPECT_EQ(rm.dirty_jobs().count(0), 1u);
  const Plan& p2 = rm.reschedule(Time{50});
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
  EXPECT_GE(reduce->start, latest_map_end);
  EXPECT_GE(reduce->start, Time{200});
  EXPECT_EQ(rm.stats().dirty_promotions, 0u);
}

TEST(Incremental, ParkedJobRejoinsTheDirtySetWhenItsResourceRecovers) {
  MrcpConfig cfg = incremental_config();
  MrcpRm rm(Cluster::homogeneous(1, 1, 1), cfg);
  rm.submit(make_job(0, Time{0}, Time{0}, Time{100'000}, {Time{100}}, {Time{50}}), Time{0});
  rm.reschedule(Time{0});

  rm.handle_resource_down(0, Time{10});
  const Plan& parked = rm.reschedule(Time{10});
  EXPECT_TRUE(parked.tasks.empty());
  EXPECT_EQ(parked.parked.size(), 2u);
  EXPECT_EQ(rm.ledger().records().back().outcome, InvocationOutcome::kParked);
  // Parked work retries on a timer even without a repair event …
  const Time retry = Time{10} + seconds_to_ticks(std::int64_t{5});
  EXPECT_EQ(rm.next_deferred_release(), retry);

  // … and a retry while the resource is still down parks again instead
  // of taking the empty-dirty fast path (the parked fold keeps the job
  // in the dirty set every invocation).
  rm.reschedule(retry);
  EXPECT_EQ(rm.ledger().records().back().outcome, InvocationOutcome::kParked);

  // The repair dirties the parked job; the next invocation re-solves it.
  rm.handle_resource_up(0, Time{100});
  EXPECT_EQ(rm.dirty_jobs().count(0), 1u);
  const Plan& repaired = rm.reschedule(Time{100});
  EXPECT_TRUE(repaired.parked.empty());
  EXPECT_EQ(repaired.tasks.size(), 2u);
  EXPECT_EQ(rm.ledger().records().back().outcome,
            InvocationOutcome::kCpPrimary);

  rm.reschedule(Time{1'000'000});
  EXPECT_EQ(rm.stats().jobs_completed, 1u);
  EXPECT_EQ(rm.stats().dirty_promotions, 0u);
}

// ---- Randomized differential: live RM vs one restored from its state ----

Job random_job(RandomStream& rng, JobId id, Time now) {
  const int maps = static_cast<int>(rng.uniform_int(1, 3));
  const int reduces = static_cast<int>(rng.uniform_int(0, 2));
  std::vector<Time> map_durs;
  std::vector<Time> reduce_durs;
  for (int i = 0; i < maps; ++i) map_durs.push_back(Time{rng.uniform_int(50, 400)});
  for (int i = 0; i < reduces; ++i) {
    reduce_durs.push_back(Time{rng.uniform_int(50, 300)});
  }
  const Time earliest = now + Time{rng.uniform_int(0, 300)};
  const Time deadline = earliest + Time{rng.uniform_int(500, 3'000)};
  return make_job(id, now, earliest, deadline, map_durs, reduce_durs);
}

/// Drives one RM through a randomized event stream — arrivals,
/// failures, repairs, idle re-invocations — and, before every
/// reschedule(), restores a second RM from its encode_state(): the
/// restored RM must publish the byte-identical next plan (the snapshot
/// carries everything a replan reads).
void run_differential(std::uint64_t seed, ReplanScope scope) {
  RandomStream rng(seed, 7);
  const int m = static_cast<int>(rng.uniform_int(2, 3));
  const Cluster cluster = Cluster::homogeneous(m, 2, 2);
  const MrcpConfig cfg = incremental_config(scope);
  MrcpRm rm(cluster, cfg);

  Time t;
  JobId next_id = 0;
  std::vector<bool> down(static_cast<std::size_t>(m), false);
  auto reschedule_both = [&] {
    MrcpRm restored(cluster, cfg);
    std::string error;
    ASSERT_TRUE(restored.restore_state(rm.encode_state(), &error)) << error;
    const Plan& pa = rm.reschedule(t);
    const Plan& pb = restored.reschedule(t);
    ASSERT_EQ(pa.epoch, pb.epoch) << "seed " << seed;
    ASSERT_TRUE(plans_equal(pa, pb)) << "seed " << seed << " at t=" << t;
    ASSERT_EQ(rm.next_deferred_release(), restored.next_deferred_release());
  };

  rm.submit(random_job(rng, next_id++, t), t);
  rm.submit(random_job(rng, next_id++, t), t);
  reschedule_both();

  for (int step = 0; step < 8; ++step) {
    t += Time{rng.uniform_int(1, 500)};
    switch (rng.uniform_int(0, 3)) {
      case 0:
        rm.submit(random_job(rng, next_id++, t), t);
        break;
      case 1: {  // fail a random up resource
        std::vector<ResourceId> up;
        for (int r = 0; r < m; ++r) {
          if (!down[static_cast<std::size_t>(r)]) {
            up.push_back(static_cast<ResourceId>(r));
          }
        }
        if (up.empty()) break;
        const ResourceId r = up[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(up.size()) - 1))];
        down[static_cast<std::size_t>(r)] = true;
        rm.handle_resource_down(r, t);
        break;
      }
      case 2: {  // repair a random down resource
        std::vector<ResourceId> downed;
        for (int r = 0; r < m; ++r) {
          if (down[static_cast<std::size_t>(r)]) {
            downed.push_back(static_cast<ResourceId>(r));
          }
        }
        if (downed.empty()) break;
        const ResourceId r = downed[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(downed.size()) - 1))];
        down[static_cast<std::size_t>(r)] = false;
        rm.handle_resource_up(r, t);
        break;
      }
      default:  // pure re-invocation
        break;
    }
    reschedule_both();
  }

  // Drain: repair everything, then run far past every deadline.
  for (int r = 0; r < m; ++r) {
    if (down[static_cast<std::size_t>(r)]) {
      rm.handle_resource_up(static_cast<ResourceId>(r), t);
    }
  }
  reschedule_both();
  // Two drain passes: the first releases any deferred jobs and plans
  // them into its own future; the second sweeps them complete.
  t += Time{10'000'000};
  reschedule_both();
  t += Time{10'000'000};
  reschedule_both();
  ASSERT_EQ(rm.stats().jobs_completed, rm.stats().jobs_submitted);
  ASSERT_EQ(rm.stats().dirty_promotions, 0u);
}

TEST(IncrementalDifferential, RestoredStateRepublishesByteIdenticalOver500Seeds) {
  for (const ReplanScope scope :
       {ReplanScope::kAllUnstarted, ReplanScope::kDirtyOnly}) {
    for (std::uint64_t seed = 0; seed < 500; ++seed) {
      run_differential(seed, scope);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// ---- Fault storm: dirty-set invariants ----

TEST(Incremental, FaultStormNeverTripsTheDirtyPromotionSafetyNet) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    RandomStream rng(seed, 11);
    const int m = 3;
    MrcpRm rm(Cluster::homogeneous(m, 2, 2), incremental_config());
    Time t;
    JobId next_id = 0;
    std::vector<bool> down(static_cast<std::size_t>(m), false);
    rm.submit(random_job(rng, next_id++, t), t);
    rm.reschedule(t);
    for (int step = 0; step < 12; ++step) {
      t += Time{rng.uniform_int(1, 300)};
      const std::int64_t roll = rng.uniform_int(0, 9);
      if (roll < 2 && next_id < 8) {
        rm.submit(random_job(rng, next_id++, t), t);
      } else if (roll < 6) {
        std::vector<ResourceId> up;
        for (int r = 0; r < m; ++r) {
          if (!down[static_cast<std::size_t>(r)]) {
            up.push_back(static_cast<ResourceId>(r));
          }
        }
        if (!up.empty()) {
          const ResourceId r = up[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(up.size()) - 1))];
          down[static_cast<std::size_t>(r)] = true;
          rm.handle_resource_down(r, t);
        }
      } else if (roll < 9) {
        std::vector<ResourceId> downed;
        for (int r = 0; r < m; ++r) {
          if (down[static_cast<std::size_t>(r)]) {
            downed.push_back(static_cast<ResourceId>(r));
          }
        }
        if (!downed.empty()) {
          const ResourceId r = downed[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(downed.size()) - 1))];
          down[static_cast<std::size_t>(r)] = false;
          rm.handle_resource_up(r, t);
        }
      }
      rm.reschedule(t);  // validate_plans re-checks every published plan
    }
    for (int r = 0; r < m; ++r) {
      if (down[static_cast<std::size_t>(r)]) {
        rm.handle_resource_up(static_cast<ResourceId>(r), t);
      }
    }
    rm.reschedule(t);
    rm.reschedule(t + Time{10'000'000});
    rm.reschedule(t + Time{20'000'000});
    ASSERT_EQ(rm.stats().jobs_completed, rm.stats().jobs_submitted)
        << "seed " << seed;
    ASSERT_EQ(rm.stats().dirty_promotions, 0u) << "seed " << seed;
    ASSERT_EQ(rm.ledger().counts().invocations(), rm.stats().invocations);
  }
}

// ---- Through the discrete-event simulator ----

TEST(Incremental, DesParkedWorkRetriesWhileTheSimulatorIsIdle) {
  // Two resources with frequent failures and long repairs: the cluster
  // goes fully down mid-run, parking the job. The park-retry timer must
  // reach the driver through next_deferred_release() so retry
  // invocations fire while the DES has no other events — the run
  // completing (the driver asserts every job finishes) plus multiple
  // kParked invocations is the regression proof, in both replan scopes.
  for (const ReplanScope scope :
       {ReplanScope::kAllUnstarted, ReplanScope::kDirtyOnly}) {
    const Job job =
        make_job(0, Time{0}, Time{0}, Time{10'000'000}, {Time{30'000}, Time{30'000}, Time{30'000}}, {Time{10'000}});
    const Workload w = make_workload({job}, 2, 1, 1);
    MrcpConfig cfg;
    cfg.replan_scope = scope;
    cfg.validate_plans = true;
    sim::SimOptions options;
    options.validate_execution = true;
    options.faults.mtbf_s = 4.0;
    options.faults.mttr_s = 60.0;
    options.faults.max_concurrent_down = 2;  // allow a full outage
    options.faults.seed = 5;
    const sim::SimMetrics metrics = sim::simulate_mrcp(w, cfg, options);
    ASSERT_EQ(metrics.records.size(), 1u);
    EXPECT_TRUE(metrics.records[0].completed());
    EXPECT_GE(metrics.degradation.parked, 2u)
        << "park retries never fired while idle";
  }
}

TEST(Incremental, DesExecutionUnderFaultsValidates) {
  // Full simulated runs under frequent failures: the simulator's
  // validate_execution checks the executed schedule, validate_plans
  // every published plan, and every job must finish.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SyntheticWorkloadConfig wc;
    wc.num_jobs = 10;
    wc.num_map_tasks = {1, 4};
    wc.num_reduce_tasks = {1, 2};
    wc.e_max = 5;
    wc.arrival_rate = 0.05;
    wc.num_resources = 4;
    wc.deadline_multiplier_ul = 3.0;
    wc.seed = seed;
    const Workload w = generate_synthetic_workload(wc);

    sim::SimOptions options;
    options.validate_execution = true;
    options.faults.mtbf_s = 60.0;
    options.faults.mttr_s = 15.0;
    options.faults.seed = seed + 100;

    MrcpConfig cfg;
    cfg.replan_scope = ReplanScope::kDirtyOnly;
    cfg.validate_plans = true;
    cfg.solve.improvement_fails = 200;
    cfg.solve.lns_iterations = 2;

    const sim::SimMetrics metrics = sim::simulate_mrcp(w, cfg, options);
    ASSERT_EQ(metrics.records.size(), w.size()) << "seed " << seed;
    for (const sim::JobRecord& r : metrics.records) {
      ASSERT_TRUE(r.completed()) << "seed " << seed;
    }
    EXPECT_GT(metrics.failure.resource_failures, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mrcp
