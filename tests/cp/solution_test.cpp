#include "cp/solution.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "cp/audit.h"
#include "cp/solver.h"

namespace mrcp::cp {
namespace {

// Model: 1 resource (2 map / 1 reduce slots); job 0 with maps {20, 30} and
// reduce {40}, s_j = 0, d_j = 100.
Model base_model() {
  Model m;
  m.add_resource(2, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{100}, 7);
  m.add_task(j, Phase::kMap, Time{20});
  m.add_task(j, Phase::kMap, Time{30});
  m.add_task(j, Phase::kReduce, Time{40});
  return m;
}

Solution good_solution() {
  Solution s;
  s.placements = {{0, Time{0}}, {0, Time{0}}, {0, Time{30}}};  // maps parallel, reduce at 30
  return s;
}

TEST(EvaluateSolution, ComputesCompletionAndLateness) {
  const Model m = base_model();
  Solution s = good_solution();
  evaluate_solution(m, s);
  EXPECT_TRUE(s.valid);
  EXPECT_EQ(s.job_completion[0], Time{70});
  EXPECT_EQ(s.job_late[0], 0);
  EXPECT_EQ(s.num_late, 0);
  EXPECT_EQ(s.total_completion, Time{70});
}

TEST(EvaluateSolution, MarksLateJob) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{25}, 7);
  m.add_task(j, Phase::kMap, Time{30});
  Solution s;
  s.placements = {{0, Time{0}}};
  evaluate_solution(m, s);
  EXPECT_EQ(s.job_completion[0], Time{30});
  EXPECT_EQ(s.job_late[0], 1);
  EXPECT_EQ(s.num_late, 1);
}

TEST(ValidateSolution, AcceptsGoodSolution) {
  const Model m = base_model();
  Solution s = good_solution();
  evaluate_solution(m, s);
  EXPECT_EQ(validate_solution(m, s), "");
}

TEST(ValidateSolution, CatchesCapacityViolation) {
  Model m;
  m.add_resource(1, 1);  // only 1 map slot
  const CpJobIndex j = m.add_job(Time{0}, Time{100});
  m.add_task(j, Phase::kMap, Time{20});
  m.add_task(j, Phase::kMap, Time{20});
  Solution s;
  s.placements = {{0, Time{0}}, {0, Time{10}}};  // overlap on a 1-capacity resource
  EXPECT_NE(validate_solution(m, s), "");
  s.placements = {{0, Time{0}}, {0, Time{20}}};  // sequential is fine
  EXPECT_EQ(validate_solution(m, s), "");
}

TEST(ValidateSolution, CatchesPrecedenceViolation) {
  const Model m = base_model();
  Solution s;
  s.placements = {{0, Time{0}}, {0, Time{0}}, {0, Time{29}}};  // reduce starts before map end
  EXPECT_NE(validate_solution(m, s), "");
}

TEST(ValidateSolution, CatchesEarliestStartViolation) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{50}, Time{200});
  m.add_task(j, Phase::kMap, Time{10});
  Solution s;
  s.placements = {{0, Time{40}}};
  EXPECT_NE(validate_solution(m, s), "");
  s.placements = {{0, Time{50}}};
  EXPECT_EQ(validate_solution(m, s), "");
}

TEST(ValidateSolution, PinnedTaskExemptFromEarliestStart) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{50}, Time{200});
  const CpTaskIndex t = m.add_task(j, Phase::kMap, Time{10});
  m.pin_task(t, 0, Time{40});  // started before the (clamped) s_j
  Solution s;
  s.placements = {{0, Time{40}}};
  EXPECT_EQ(validate_solution(m, s), "");
}

TEST(ValidateSolution, CatchesPinningViolation) {
  Model m;
  m.add_resource(2, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{200});
  const CpTaskIndex t = m.add_task(j, Phase::kMap, Time{10});
  m.pin_task(t, 0, Time{15});
  Solution s;
  s.placements = {{0, Time{20}}};  // wrong start
  EXPECT_NE(validate_solution(m, s), "");
  s.placements = {{0, Time{15}}};
  EXPECT_EQ(validate_solution(m, s), "");
}

TEST(ValidateSolution, CatchesNonCandidateResource) {
  Model m;
  m.add_resource(1, 1);
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{200});
  const CpTaskIndex t = m.add_task(j, Phase::kMap, Time{10});
  m.restrict_candidates(t, {1});
  Solution s;
  s.placements = {{0, Time{0}}};
  EXPECT_NE(validate_solution(m, s), "");
  s.placements = {{1, Time{0}}};
  EXPECT_EQ(validate_solution(m, s), "");
}

TEST(ValidateSolution, CatchesUndecidedTask) {
  const Model m = base_model();
  Solution s;
  s.placements.resize(3);  // default: undecided
  EXPECT_NE(validate_solution(m, s), "");
}

TEST(ValidateSolution, CatchesWrongPlacementCount) {
  const Model m = base_model();
  Solution s;
  s.placements = {{0, Time{0}}};
  EXPECT_NE(validate_solution(m, s), "");
}

TEST(SolutionOrdering, BetterThanComparesLateThenCompletion) {
  Solution a;
  a.valid = true;
  a.num_late = 1;
  a.total_completion = Time{100};
  Solution b;
  b.valid = true;
  b.num_late = 2;
  b.total_completion = Time{50};
  EXPECT_TRUE(a.better_than(b));
  EXPECT_FALSE(b.better_than(a));
  b.num_late = 1;
  b.total_completion = Time{99};
  EXPECT_TRUE(b.better_than(a));
  Solution invalid;
  EXPECT_TRUE(a.better_than(invalid));
  EXPECT_FALSE(invalid.better_than(a));
}

TEST(SolutionOrdering, MapsOnDifferentPhasesDontCollide) {
  // Map and reduce capacity pools are independent: a 1/1 resource can run
  // one map and one reduce simultaneously.
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j0 = m.add_job(Time{0}, Time{200});
  m.add_task(j0, Phase::kMap, Time{50});
  const CpJobIndex j1 = m.add_job(Time{0}, Time{200});
  m.add_task(j1, Phase::kReduce, Time{50});
  Solution s;
  s.placements = {{0, Time{0}}, {0, Time{0}}};
  EXPECT_EQ(validate_solution(m, s), "");
}

TEST(ValidateSolution, NetDemandOnZeroCapacityResourceFails) {
  // Resource 1 models links, so links are constrained cluster-wide: a
  // net-demanding task on resource 0 (no link capacity) must fail the
  // sweep rather than skip it.
  Model m;
  m.add_resource(1, 1, /*net_capacity=*/0);
  m.add_resource(1, 1, /*net_capacity=*/1);
  const CpJobIndex j = m.add_job(Time{0}, Time{200});
  m.add_task(j, Phase::kMap, Time{10}, 1, -1, /*net_demand=*/1);
  Solution s;
  s.placements = {{0, Time{0}}};
  EXPECT_NE(validate_solution(m, s), "");
  s.placements = {{1, Time{0}}};
  EXPECT_EQ(validate_solution(m, s), "");
}

TEST(ValidateSolution, PinnedReduceExemptFromBarrier) {
  // A pinned task ran before the re-plan: a re-planned map may end after
  // it, but an unpinned reduce is still held to every map end.
  Model m = base_model();
  m.pin_task(2, 0, Time{25});
  Solution s;
  s.placements = {{0, Time{0}}, {0, Time{0}}, {0, Time{25}}};
  EXPECT_EQ(validate_solution(m, s), "");

  Model unpinned = base_model();
  EXPECT_NE(validate_solution(unpinned, s), "");
}

TEST(ValidateSolution, CatchesAntiAffinityViolation) {
  Model m;
  m.add_resource(2, 1);
  m.add_resource(2, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{200});
  m.set_affinity_group(m.add_task(j, Phase::kMap, Time{10}), 0);
  m.set_affinity_group(m.add_task(j, Phase::kMap, Time{10}), 0);
  Solution s;
  s.placements = {{0, Time{0}}, {0, Time{50}}};  // same host, disjoint times
  EXPECT_NE(validate_solution(m, s), "");
  s.placements = {{0, Time{0}}, {1, Time{0}}};
  EXPECT_EQ(validate_solution(m, s), "");
}

// ---- Mutation differential against the brute-force oracle.
//
// A solver solution of a random small model is mutated once; the
// production validator (one shared checker behind a thin adapter) and the
// independent quadratic oracle must then agree on the verdict. Each kind
// targets one constraint class, so a checker that drops or weakens a
// check disagrees with the oracle on some seed.

enum class Mutation {
  kShiftStart,
  kMoveResource,
  kBreakPin,
  kMapBeforeEarliestStart,
  kReduceInsideMapPhase,
  kShareAffinityHost,
  kOverloadLink,
};
constexpr std::array<Mutation, 7> kMutations = {
    Mutation::kShiftStart,           Mutation::kMoveResource,
    Mutation::kBreakPin,             Mutation::kMapBeforeEarliestStart,
    Mutation::kReduceInsideMapPhase, Mutation::kShareAffinityHost,
    Mutation::kOverloadLink};

/// Random small model with every constraint class the checker shares:
/// mixed speeds, candidate sets, an anti-affinity pair, a pinned map,
/// workflow edges and (half the time) constrained links.
Model mutation_model(RandomStream& rng) {
  Model m;
  const int num_resources = static_cast<int>(rng.uniform_int(2, 3));
  const bool links = rng.bernoulli(0.5);
  for (int r = 0; r < num_resources; ++r) {
    m.add_resource(static_cast<int>(rng.uniform_int(1, 2)),
                   static_cast<int>(rng.uniform_int(1, 2)),
                   links ? static_cast<int>(rng.uniform_int(r == 0 ? 1 : 0, 2))
                         : 0,
                   rng.bernoulli(0.5) ? 1000 : 500 * static_cast<int>(
                                                       rng.uniform_int(1, 4)));
  }
  const int num_jobs = static_cast<int>(rng.uniform_int(1, 3));
  for (int ji = 0; ji < num_jobs; ++ji) {
    const Time est{rng.uniform_int(0, 6)};
    const CpJobIndex j = m.add_job(est, est + Time{rng.uniform_int(20, 80)});
    const int num_maps = static_cast<int>(rng.uniform_int(1, 3));
    const int num_reduces = static_cast<int>(rng.uniform_int(0, 2));
    std::vector<CpTaskIndex> tasks;
    for (int k = 0; k < num_maps + num_reduces; ++k) {
      tasks.push_back(m.add_task(
          j, k < num_maps ? Phase::kMap : Phase::kReduce,
          Time{rng.uniform_int(1, 8)}, 1, -1,
          links ? static_cast<int>(rng.uniform_int(0, 1)) : 0));
    }
    if (tasks.size() >= 2 && rng.bernoulli(0.5)) {
      const int group = m.num_affinity_groups();
      m.set_affinity_group(tasks[0], group);
      m.set_affinity_group(tasks[1], group);
    } else if (num_maps >= 2 && rng.bernoulli(0.5)) {
      m.add_precedence(tasks[0], tasks[1]);
    }
    if (rng.bernoulli(0.3)) {
      m.restrict_candidates(
          tasks.back(),
          {static_cast<CpResourceIndex>(rng.uniform_int(0, num_resources - 1))});
    }
  }
  // Pin job 0's first map where it would have started: on resource 0,
  // before the job's (clamped) s_j when there is room.
  const CpTask& first = m.task(0);
  if (first.candidates.empty() && first.affinity_group < 0) {
    m.pin_task(0, 0, std::max(Time{0}, m.job(0).earliest_start - Time{1}));
  }
  return m;
}

/// Apply one mutation of `kind` to `sol`; false when the model offers no
/// target for it (the solution is then unchanged).
bool mutate(const Model& m, Mutation kind, RandomStream& rng, Solution& sol) {
  const auto n = static_cast<std::int64_t>(m.num_tasks());
  const auto pick = [&](auto&& eligible) -> CpTaskIndex {
    std::vector<CpTaskIndex> pool;
    for (CpTaskIndex t = 0; t < n; ++t) {
      if (eligible(m.task(t))) pool.push_back(t);
    }
    if (pool.empty()) return -1;
    return pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
  };
  const auto at = [&](CpTaskIndex t) -> TaskPlacement& {
    return sol.placements[static_cast<std::size_t>(t)];
  };
  const auto end_of = [&](CpTaskIndex t) {
    return at(t).start + m.duration_on(t, at(t).resource);
  };
  const auto any = [](const CpTask&) { return true; };
  const auto num_resources = static_cast<std::int64_t>(m.num_resources());
  switch (kind) {
    case Mutation::kShiftStart: {
      const CpTaskIndex t = pick(any);
      const std::int64_t delta = rng.uniform_int(1, 6);
      at(t).start += Time{rng.bernoulli(0.5) ? delta : -delta};
      return true;
    }
    case Mutation::kMoveResource: {
      const CpTaskIndex t = pick(any);
      at(t).resource = static_cast<CpResourceIndex>(
          (at(t).resource + rng.uniform_int(1, num_resources - 1)) %
          num_resources);
      return true;
    }
    case Mutation::kBreakPin: {
      const CpTaskIndex t = pick([](const CpTask& c) { return c.pinned; });
      if (t < 0) return false;
      at(t).start += Time{rng.uniform_int(1, 3)};
      return true;
    }
    case Mutation::kMapBeforeEarliestStart: {
      const CpTaskIndex t = pick([](const CpTask& c) {
        return !c.pinned && c.phase == Phase::kMap;
      });
      if (t < 0) return false;
      at(t).start = m.job(m.task(t).job).earliest_start -
                    Time{rng.uniform_int(1, 3)};
      return true;
    }
    case Mutation::kReduceInsideMapPhase: {
      const CpTaskIndex t = pick([](const CpTask& c) {
        return !c.pinned && c.phase == Phase::kReduce;
      });
      if (t < 0) return false;
      Time maps_end{0};
      for (CpTaskIndex map : m.job(m.task(t).job).map_tasks) {
        maps_end = std::max(maps_end, end_of(map));
      }
      at(t).start = maps_end - Time{rng.uniform_int(1, 3)};
      return true;
    }
    case Mutation::kShareAffinityHost: {
      const CpTaskIndex t =
          pick([](const CpTask& c) { return c.affinity_group >= 0; });
      if (t < 0) return false;
      for (CpTaskIndex u = 0; u < n; ++u) {
        if (u != t && m.task(u).affinity_group == m.task(t).affinity_group) {
          at(u).resource = at(t).resource;
        }
      }
      return true;
    }
    case Mutation::kOverloadLink: {
      if (!m.links_constrained()) return false;
      const CpTaskIndex t = pick([](const CpTask& c) {
        return !c.pinned && c.net_demand > 0;
      });
      if (t < 0) return false;
      // Stack it on another net-demanding task, or move it to a
      // resource without link capacity.
      for (CpTaskIndex u = 0; u < n; ++u) {
        if (u != t && m.task(u).net_demand > 0 && rng.bernoulli(0.5)) {
          at(t) = at(u);
          return true;
        }
      }
      for (CpResourceIndex r = 0; r < num_resources; ++r) {
        if (m.resource(r).net_capacity == 0) {
          at(t).resource = r;
          return true;
        }
      }
      return false;
    }
  }
  return false;
}

/// Verdict agreement of validate_solution and the brute-force oracle on
/// one mutation of each kind of one seeded model; returns, per kind,
/// whether the mutant was rejected.
std::array<bool, kMutations.size()> mutation_differential(std::uint64_t seed) {
  std::array<bool, kMutations.size()> rejected{};
  RandomStream rng(seed, 0x4D55);
  Model m = mutation_model(rng);
  while (!m.validate().empty()) m = mutation_model(rng);
  SolveParams params;
  params.improvement_fails = 200;
  params.lns_iterations = 2;
  params.seed = seed;
  const SolveResult result = solve(m, params);
  if (!result.best.valid) return rejected;  // infeasible draw: nothing to mutate
  EXPECT_EQ(validate_solution(m, result.best), "") << "seed " << seed;
  EXPECT_EQ(audit::brute_force_check_solution(m, result.best), "")
      << "seed " << seed;
  for (std::size_t k = 0; k < kMutations.size(); ++k) {
    Solution mutant = result.best;
    if (!mutate(m, kMutations[k], rng, mutant)) continue;
    const std::string mine = validate_solution(m, mutant);
    const std::string oracle = audit::brute_force_check_solution(m, mutant);
    EXPECT_EQ(mine.empty(), oracle.empty())
        << "seed " << seed << " mutation " << k << ": validator '" << mine
        << "' vs oracle '" << oracle << "'";
    rejected[k] = !mine.empty();
  }
  return rejected;
}

class MutationDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MutationDifferential, ValidatorAgreesWithBruteForceOracle) {
  for (std::uint64_t s = 0; s < 10; ++s) {
    mutation_differential(GetParam() * 10 + s);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationDifferential,
                         ::testing::Range<std::uint64_t>(0, 20));

TEST(MutationDifferentialCoverage, EveryMutationKindIsCaught) {
  // Guards the differential against vacuity: each kind must produce at
  // least one mutant both checkers reject.
  std::array<int, kMutations.size()> caught{};
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const auto rejected = mutation_differential(seed);
    for (std::size_t k = 0; k < kMutations.size(); ++k) caught[k] += rejected[k];
  }
  for (std::size_t k = 0; k < kMutations.size(); ++k) {
    EXPECT_GT(caught[k], 0) << "mutation " << k << " never rejected";
  }
}

}  // namespace
}  // namespace mrcp::cp
