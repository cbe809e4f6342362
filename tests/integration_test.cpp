// Cross-module integration tests: generated workloads through the full
// simulation stack, for both resource managers, with execution
// validation on. These are small-scale versions of the paper's
// experiments — they assert structural properties and directional
// results, not absolute numbers.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "mapreduce/facebook_workload.h"
#include "mapreduce/synthetic_workload.h"
#include "sim/cluster_sim.h"
#include "sim/experiment.h"

namespace mrcp {
namespace {

MrcpConfig sim_mrcp_config() {
  MrcpConfig c;
  c.solve.time_limit_s = 0.3;
  c.solve.improvement_fails = 300;
  c.solve.lns_iterations = 5;
  return c;
}

SyntheticWorkloadConfig small_synthetic(std::uint64_t seed) {
  SyntheticWorkloadConfig c;
  c.num_jobs = 30;
  // Scale down Table 3 defaults to keep per-test runtime small: fewer
  // tasks per job, same structure.
  c.num_map_tasks = {1, 20};
  c.num_reduce_tasks = {1, 10};
  c.e_max = 20;
  c.arrival_rate = 0.02;
  c.num_resources = 10;
  c.seed = seed;
  return c;
}

TEST(Integration, SyntheticWorkloadThroughMrcp) {
  const Workload w = generate_synthetic_workload(small_synthetic(1));
  sim::SimOptions opts;
  opts.validate_execution = true;
  MrcpConfig config = sim_mrcp_config();
  config.validate_plans = true;
  const sim::SimMetrics m = sim::simulate_mrcp(w, config, opts);
  for (const sim::JobRecord& r : m.records) {
    ASSERT_TRUE(r.completed());
    EXPECT_GE(r.completion, r.earliest_start);
  }
  const auto agg = m.aggregate();
  EXPECT_EQ(agg.jobs, w.size());
  // Default Table 3 deadlines are loose; very few jobs should be late.
  EXPECT_LE(agg.percent_late, 20.0);
}

TEST(Integration, SyntheticWorkloadThroughMinedf) {
  const Workload w = generate_synthetic_workload(small_synthetic(1));
  const sim::SimMetrics m = sim::simulate_minedf(w);
  for (const sim::JobRecord& r : m.records) ASSERT_TRUE(r.completed());
}

TEST(Integration, FacebookWorkloadBothManagers) {
  FacebookWorkloadConfig fb;
  fb.num_jobs = 25;
  fb.arrival_rate = 0.001;  // sparse to keep CP instances small
  fb.seed = 3;
  const Workload w = generate_facebook_workload(fb);
  const sim::SimMetrics cp_m = sim::simulate_mrcp(w, sim_mrcp_config());
  const sim::SimMetrics edf_m = sim::simulate_minedf(w);
  for (const sim::JobRecord& r : cp_m.records) ASSERT_TRUE(r.completed());
  for (const sim::JobRecord& r : edf_m.records) ASSERT_TRUE(r.completed());
  // Directional check (paper Fig. 2): MRCP-RM should not lose to
  // MinEDF-WC on late jobs.
  EXPECT_LE(cp_m.aggregate().late, edf_m.aggregate().late + 1);
}

TEST(Integration, MrcpDeterministicAcrossRuns) {
  const Workload w = generate_synthetic_workload(small_synthetic(5));
  const sim::SimMetrics a = sim::simulate_mrcp(w, sim_mrcp_config());
  const sim::SimMetrics b = sim::simulate_mrcp(w, sim_mrcp_config());
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].completion, b.records[i].completion);
    EXPECT_EQ(a.records[i].late, b.records[i].late);
  }
}

TEST(Integration, SeparationAndDirectModesBothValid) {
  const Workload w = generate_synthetic_workload(small_synthetic(7));
  MrcpConfig combined = sim_mrcp_config();
  combined.use_separation = true;
  MrcpConfig direct = sim_mrcp_config();
  direct.use_separation = false;
  // Direct mode is slower (the paper's motivation for §V.D); run it on a
  // reduced prefix.
  Workload prefix = w;
  prefix.jobs.resize(8);
  const sim::SimMetrics a = sim::simulate_mrcp(prefix, combined);
  const sim::SimMetrics b = sim::simulate_mrcp(prefix, direct);
  for (std::size_t i = 0; i < prefix.jobs.size(); ++i) {
    ASSERT_TRUE(a.records[i].completed());
    ASSERT_TRUE(b.records[i].completed());
  }
}

TEST(Integration, HigherArrivalRateDoesNotBreakValidation) {
  SyntheticWorkloadConfig c = small_synthetic(11);
  c.arrival_rate = 0.05;  // heavy load
  c.num_jobs = 20;
  const Workload w = generate_synthetic_workload(c);
  const sim::SimMetrics m = sim::simulate_mrcp(w, sim_mrcp_config());
  for (const sim::JobRecord& r : m.records) ASSERT_TRUE(r.completed());
}

TEST(Integration, ReplicationHarnessOverRealSims) {
  const sim::ReplicatedMetrics agg =
      sim::replicate(3, [&](std::size_t rep) {
        const Workload w = generate_synthetic_workload(
            small_synthetic(replication_seed(42, rep)));
        const sim::SimMetrics m = sim::simulate_mrcp(w, sim_mrcp_config());
        return sim::summarize_run(m, 0.1);
      });
  EXPECT_EQ(agg.replications, 3u);
  EXPECT_GT(agg.T.mean, 0.0);
  EXPECT_GE(agg.P.mean, 0.0);
  EXPECT_GT(agg.O.mean, 0.0);
}

TEST(Integration, AdvanceReservationsExecuteAtTheirStart) {
  SyntheticWorkloadConfig c = small_synthetic(13);
  c.start_prob = 1.0;  // every job an AR request
  c.s_max = 100;
  c.num_jobs = 15;
  const Workload w = generate_synthetic_workload(c);
  const sim::SimMetrics m = sim::simulate_mrcp(w, sim_mrcp_config());
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    ASSERT_TRUE(m.records[i].completed());
    EXPECT_GE(m.records[i].completion,
              w.jobs[i].earliest_start + w.jobs[i].max_map_time());
  }
}

}  // namespace
}  // namespace mrcp
