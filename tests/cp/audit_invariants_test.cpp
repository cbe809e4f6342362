// Standalone suites for the audit layer itself, runnable in EVERY build
// configuration (no MRCP_AUDIT needed): the audit functions are plain
// library code.
//
// Three groups:
//  * ReferenceProfile vs Profile equivalence under random add/remove
//    interleavings — the differential check the in-engine hooks rely on;
//  * earliest_feasible answer audits: monotone, feasible, idempotent,
//    minimal — including a deliberately wrong answer being rejected;
//  * brute_force_check_solution / exhaustive_min_late on hand-built
//    models with known optima.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/rng.h"
#include "cp/audit.h"
#include "cp/model.h"
#include "cp/profile.h"
#include "cp/solver.h"

namespace mrcp::cp {
namespace {

// --- ReferenceProfile vs Profile -----------------------------------------

TEST(ReferenceProfileTest, MatchesFastProfileUnderRandomMutation) {
  RandomStream rng(42, 0xA0D1);
  for (int trial = 0; trial < 50; ++trial) {
    const int capacity = static_cast<int>(rng.uniform_int(1, 4));
    Profile fast(capacity);
    audit::ReferenceProfile ref(capacity);
    std::vector<std::tuple<Time, Time, int>> live;  // {start, duration, demand}

    for (int step = 0; step < 120; ++step) {
      const bool remove = !live.empty() && rng.bernoulli(0.4);
      if (remove) {
        const std::size_t i = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        const auto [s, d, q] = live[i];
        fast.remove(s, d, q);
        ref.remove(s, d, q);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        const Time s{rng.uniform_int(0, 200)};
        const Time d{rng.uniform_int(1, 30)};
        const int q = static_cast<int>(rng.uniform_int(1, capacity));
        fast.add(s, d, q);
        ref.add(s, d, q);
        live.emplace_back(s, d, q);
      }
      ASSERT_EQ(audit::check_profile_against_reference(fast, ref), "")
          << "trial " << trial << " step " << step;

      // Random feasibility queries must agree too.
      const Time est{rng.uniform_int(0, 250)};
      const Time dur{rng.uniform_int(1, 25)};
      const int dem = static_cast<int>(rng.uniform_int(1, capacity));
      ASSERT_EQ(fast.earliest_feasible(est, dur, dem),
                ref.earliest_feasible(est, dur, dem))
          << "trial " << trial << " step " << step;
    }
  }
}

// --- earliest_feasible answer audits --------------------------------------

TEST(EarliestFeasibleAuditTest, AcceptsCorrectAnswers) {
  RandomStream rng(7, 0xB0B);
  Profile profile(2);
  for (int i = 0; i < 40; ++i) {
    profile.add(Time{rng.uniform_int(0, 100)}, Time{rng.uniform_int(1, 20)},
                static_cast<int>(rng.uniform_int(1, 2)));
  }
  for (int q = 0; q < 200; ++q) {
    const Time est{rng.uniform_int(0, 150)};
    const Time dur{rng.uniform_int(1, 15)};
    const int dem = static_cast<int>(rng.uniform_int(1, 2));
    const Time got = profile.earliest_feasible(est, dur, dem);
    EXPECT_EQ(audit::check_earliest_feasible_answer(profile, est, dur, dem, got),
              "")
        << "query " << q;
  }
}

TEST(EarliestFeasibleAuditTest, RejectsNonMonotoneAnswer) {
  Profile profile(1);
  const std::string err =
      audit::check_earliest_feasible_answer(profile, Time{10}, Time{5}, 1, Time{9});
  EXPECT_NE(err, "");
}

TEST(EarliestFeasibleAuditTest, RejectsInfeasibleAnswer) {
  Profile profile(1);
  profile.add(Time{0}, Time{10}, 1);  // resource fully busy on [0, 10)
  const std::string err =
      audit::check_earliest_feasible_answer(profile, Time{0}, Time{5}, 1, Time{3});
  EXPECT_NE(err, "");  // [3, 8) overlaps the busy stretch
}

TEST(EarliestFeasibleAuditTest, RejectsNonMinimalAnswer) {
  Profile profile(1);
  profile.add(Time{0}, Time{10}, 1);
  // Earliest feasible is 10; claiming 20 is feasible but not minimal.
  const std::string err =
      audit::check_earliest_feasible_answer(profile, Time{0}, Time{5}, 1, Time{20});
  EXPECT_NE(err, "");
}

// --- Propagation idempotence (standalone, any build) -----------------------

/// Replays a full set-times search's propagation pattern by hand:
/// schedule tasks greedily, and after each placement re-run every query
/// to confirm a second propagation pass changes nothing (fixpoint).
TEST(PropagationIdempotenceTest, SecondPassIsNoOp) {
  RandomStream rng(19, 0x1D3);
  for (int trial = 0; trial < 30; ++trial) {
    const int capacity = static_cast<int>(rng.uniform_int(1, 3));
    Profile profile(capacity);
    struct Placed {
      Time start, duration;
      int demand;
      Time est;
    };
    std::vector<Placed> placed;
    for (int t = 0; t < 25; ++t) {
      const Time est{rng.uniform_int(0, 40)};
      const Time dur{rng.uniform_int(1, 10)};
      const int dem = static_cast<int>(rng.uniform_int(1, capacity));
      const Time start = profile.earliest_feasible(est, dur, dem);
      ASSERT_EQ(audit::check_earliest_feasible_answer(profile, est, dur, dem,
                                                      start),
                "");
      profile.add(start, dur, dem);
      placed.push_back({start, dur, dem, est});

      // Idempotence across the whole fixed set: re-querying any placed
      // task from its own start (with its own demand removed) returns
      // exactly that start.
      for (const Placed& p : placed) {
        profile.remove(p.start, p.duration, p.demand);
        EXPECT_EQ(profile.earliest_feasible(p.start, p.duration, p.demand),
                  p.start)
            << "trial " << trial;
        // Monotone: rerunning from the original est can't move earlier.
        EXPECT_GE(profile.earliest_feasible(p.est, p.duration, p.demand), p.est);
        profile.add(p.start, p.duration, p.demand);
      }
    }
  }
}

// --- Brute-force solution oracle -------------------------------------------

Model two_job_model() {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex a = m.add_job(Time{0}, Time{10}, 0);
  m.add_task(a, Phase::kMap, Time{4});
  m.add_task(a, Phase::kReduce, Time{3});
  const CpJobIndex b = m.add_job(Time{0}, Time{8}, 1);
  m.add_task(b, Phase::kMap, Time{5});
  return m;
}

TEST(BruteForceOracleTest, AcceptsValidSolution) {
  const Model m = two_job_model();
  ASSERT_EQ(m.validate(), "");
  Solution sol;
  sol.placements = {{0, Time{0}}, {0, Time{4}}, {0, Time{0}}};  // maps overlap? no: map cap 1
  // Task 0 (job a map) on [0,4), task 2 (job b map) also at 0 — capacity 1
  // would be violated; place job b's map after.
  sol.placements = {{0, Time{0}}, {0, Time{9}}, {0, Time{4}}};
  evaluate_solution(m, sol);
  EXPECT_EQ(validate_solution(m, sol), "");
  EXPECT_EQ(audit::brute_force_check_solution(m, sol), "");
}

TEST(BruteForceOracleTest, RejectsCapacityViolation) {
  const Model m = two_job_model();
  Solution sol;
  sol.placements = {{0, Time{0}}, {0, Time{4}}, {0, Time{2}}};  // both maps overlap on cap 1
  evaluate_solution(m, sol);
  EXPECT_NE(audit::brute_force_check_solution(m, sol), "");
}

TEST(BruteForceOracleTest, RejectsReduceBeforeMaps) {
  const Model m = two_job_model();
  Solution sol;
  sol.placements = {{0, Time{0}}, {0, Time{2}}, {0, Time{9}}};  // reduce starts mid-map
  evaluate_solution(m, sol);
  EXPECT_NE(audit::brute_force_check_solution(m, sol), "");
}

// --- Exhaustive enumeration oracle ------------------------------------------

TEST(ExhaustiveOracleTest, KnownOptimumZeroLate) {
  // One resource, two jobs, loose deadlines: everything fits on time.
  Model m;
  m.add_resource(2, 1);
  const CpJobIndex a = m.add_job(Time{0}, Time{100}, 0);
  m.add_task(a, Phase::kMap, Time{3});
  m.add_task(a, Phase::kMap, Time{3});
  m.add_task(a, Phase::kReduce, Time{2});
  const CpJobIndex b = m.add_job(Time{0}, Time{100}, 1);
  m.add_task(b, Phase::kMap, Time{4});
  ASSERT_EQ(m.validate(), "");
  EXPECT_EQ(audit::exhaustive_min_late(m), 0);
}

TEST(ExhaustiveOracleTest, KnownOptimumOneLate) {
  // Map capacity 1 and two jobs each needing the full horizon: exactly
  // one must be late whatever the order.
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex a = m.add_job(Time{0}, Time{5}, 0);
  m.add_task(a, Phase::kMap, Time{5});
  const CpJobIndex b = m.add_job(Time{0}, Time{5}, 1);
  m.add_task(b, Phase::kMap, Time{5});
  ASSERT_EQ(m.validate(), "");
  EXPECT_EQ(audit::exhaustive_min_late(m), 1);
}

TEST(ExhaustiveOracleTest, OrderingMattersEdfStyle) {
  // Tight job must go first for zero late: EDF-shaped instance.
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex tight = m.add_job(Time{0}, Time{3}, 0);
  m.add_task(tight, Phase::kMap, Time{3});
  const CpJobIndex loose = m.add_job(Time{0}, Time{100}, 1);
  m.add_task(loose, Phase::kMap, Time{4});
  ASSERT_EQ(m.validate(), "");
  EXPECT_EQ(audit::exhaustive_min_late(m), 0);
}

TEST(ExhaustiveOracleTest, RespectsBudget) {
  Model m;
  m.add_resource(2, 2);
  const CpJobIndex j = m.add_job(Time{0}, Time{100}, 0);
  for (int t = 0; t < 6; ++t) m.add_task(j, Phase::kMap, Time{2});
  ASSERT_EQ(m.validate(), "");
  EXPECT_EQ(audit::exhaustive_min_late(m, /*max_schedules=*/1), -1);
}

TEST(ExhaustiveOracleTest, AgreesWithSolverOnPinnedModel) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex a = m.add_job(Time{0}, Time{6}, 0);
  const CpTaskIndex t0 = m.add_task(a, Phase::kMap, Time{4});
  const CpJobIndex b = m.add_job(Time{0}, Time{4}, 1);
  m.add_task(b, Phase::kMap, Time{3});
  // Job a's map is already running: job b cannot finish by 4.
  m.pin_task(t0, 0, Time{0});
  ASSERT_EQ(m.validate(), "");
  EXPECT_EQ(audit::exhaustive_min_late(m), 1);

  SolveParams params;
  params.seed = 5;
  params.time_limit_s = 5.0;
  const SolveResult result = solve(m, params);
  ASSERT_TRUE(result.best.valid);
  EXPECT_EQ(result.best.num_late, 1);
  EXPECT_EQ(audit::brute_force_check_solution(m, result.best), "");
}

}  // namespace
}  // namespace mrcp::cp
