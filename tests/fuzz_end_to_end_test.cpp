// Randomized end-to-end property suite: random workload/configuration
// combinations through both resource managers with full execution
// validation. Any capacity, precedence, SLA, or bookkeeping violation
// aborts via MRCP_CHECK inside the simulator; these tests additionally
// assert the metric invariants that must hold for every run.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "mapreduce/synthetic_workload.h"
#include "mapreduce/workload_io.h"
#include "sim/cluster_sim.h"
#include "sim/experiment.h"

namespace mrcp {
namespace {

struct FuzzCase {
  Workload workload;
  MrcpConfig config;
};

FuzzCase make_case(std::uint64_t seed) {
  RandomStream rng(seed, 0xF022);
  SyntheticWorkloadConfig wc;
  wc.num_jobs = static_cast<std::size_t>(rng.uniform_int(5, 40));
  wc.num_map_tasks = {1, rng.uniform_int(2, 30)};
  wc.num_reduce_tasks = {1, rng.uniform_int(1, 15)};
  wc.e_max = rng.uniform_int(2, 60);
  wc.start_prob = rng.uniform_real(0.0, 1.0);
  wc.s_max = rng.uniform_int(10, 5000);
  wc.deadline_multiplier_ul = rng.uniform_real(1.1, 8.0);
  wc.arrival_rate = rng.uniform_real(0.002, 0.08);
  wc.num_resources = static_cast<int>(rng.uniform_int(2, 20));
  wc.map_capacity = static_cast<int>(rng.uniform_int(1, 3));
  wc.reduce_capacity = static_cast<int>(rng.uniform_int(1, 3));
  wc.seed = seed;

  FuzzCase c;
  c.workload = generate_synthetic_workload(wc);
  c.config.use_separation = rng.bernoulli(0.8);
  c.config.defer_future_jobs = rng.bernoulli(0.7);
  c.config.deferral_window = Time{rng.uniform_int(0, 2000) * kTicksPerSecond};
  c.config.replan_scope = rng.bernoulli(0.85) ? ReplanScope::kAllUnstarted
                                              : ReplanScope::kDirtyOnly;
  // Results are only reproducible when the wall-clock cap does not bind
  // (solver.h); the deterministic budgets below finish in milliseconds,
  // so keep the cap far above them or parallel test load makes the
  // double-simulation assertions flaky.
  c.config.solve.time_limit_s = 5.0;
  c.config.solve.improvement_fails = rng.uniform_int(0, 500);
  c.config.solve.lns_iterations = static_cast<int>(rng.uniform_int(0, 10));
  c.config.solve.seed = seed;
  return c;
}

void check_invariants(const sim::SimMetrics& m, const Workload& w) {
  ASSERT_EQ(m.records.size(), w.size());
  for (std::size_t i = 0; i < m.records.size(); ++i) {
    const sim::JobRecord& r = m.records[i];
    const Job& j = w.jobs[i];
    ASSERT_TRUE(r.completed()) << "job " << i << " never finished";
    // Completion can never precede s_j + the job's longest task.
    const Time min_span = std::max(j.max_map_time(),
                                   j.num_reduce_tasks() > 0
                                       ? j.max_map_time() + j.max_reduce_time()
                                       : Time{0});
    EXPECT_GE(r.completion, j.earliest_start + min_span);
    EXPECT_EQ(r.late, r.completion > j.deadline);
  }
  // Executed exactly one interval per task (validated structurally by
  // validate_execution inside the simulator; re-check count here).
  std::size_t expected = 0;
  for (const Job& j : w.jobs) expected += j.num_tasks();
  EXPECT_EQ(m.executed.size(), expected);
}

class FuzzEndToEnd : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzEndToEnd, MrcpValidatedRun) {
  const FuzzCase c = make_case(GetParam());
  sim::SimOptions opts;
  opts.validate_execution = true;
  MrcpConfig config = c.config;
  config.validate_plans = true;  // every intermediate plan checked too
  const sim::SimMetrics m = sim::simulate_mrcp(c.workload, config, opts);
  check_invariants(m, c.workload);
}

TEST_P(FuzzEndToEnd, MinedfValidatedRun) {
  const FuzzCase c = make_case(GetParam());
  const sim::SimMetrics m = sim::simulate_minedf(c.workload);
  check_invariants(m, c.workload);
}

TEST_P(FuzzEndToEnd, WorkloadSerializationRoundTripStable) {
  const FuzzCase c = make_case(GetParam());
  std::string error;
  const Workload loaded =
      workload_from_string(workload_to_string(c.workload), &error);
  ASSERT_EQ(error, "");
  // Simulating the reloaded workload gives bit-identical completions.
  const sim::SimMetrics a = sim::simulate_mrcp(c.workload, c.config);
  const sim::SimMetrics b = sim::simulate_mrcp(loaded, c.config);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].completion, b.records[i].completion);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEndToEnd,
                         ::testing::Range<std::uint64_t>(1, 16));

}  // namespace
}  // namespace mrcp
