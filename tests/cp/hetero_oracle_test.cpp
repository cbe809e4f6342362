// Differential testing of the solver on heterogeneous, placement-
// constrained models against exhaustive enumeration.
//
// This is the companion of differential_oracle_test.cpp for the hetero
// extension: resources carry speed factors (durations become
// assignment-dependent), tasks carry data-locality candidate sets and
// anti-affinity groups. The enumeration oracle walks every candidate-
// and affinity-respecting resource assignment crossed with every
// precedence-feasible task permutation; active schedules under a regular
// objective still contain the optimum, so exact agreement is required.
//
// The EDF fallback scheduler is held to a weaker but still differential
// standard on the same instances: it must find a schedule whenever the
// enumeration does, the schedule must pass both the production validator
// and the independent brute-force checker, and its late count can never
// beat the enumerated optimum.
//
// The thorough parameters above hide a weak value ordering behind deep
// search, so a further check solves the same models with the portfolio's
// first descents alone and bounds how often they miss the optimum.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "core/fallback_scheduler.h"
#include "cp/audit.h"
#include "cp/model.h"
#include "cp/solver.h"

namespace mrcp::cp {
namespace {

constexpr int kSpeedChoices[] = {500, 750, 1000, 1500, 2000};

/// Misses of the portfolio-only solve on the 500 sweep models, as
/// measured (PortfolioOnlyMissesAreBounded).
constexpr int kPortfolioOnlyMissBound = 1;

struct GeneratedModel {
  Model model;
  bool usable = false;
  bool placement = false;  ///< carries candidates or an affinity group
};

/// Random small hetero model: 2-3 resources with mixed speed factors,
/// 1-3 jobs, <= 6 tasks total (the extra resource multiplies the
/// enumeration fan-out, so one task fewer than the homogeneous suite),
/// candidate restrictions, anti-affinity pairs and pinned tasks.
GeneratedModel generate_hetero_model(std::uint64_t seed) {
  RandomStream rng(seed, 0x4E70);
  GeneratedModel out;
  Model& m = out.model;

  const int num_resources = static_cast<int>(rng.uniform_int(2, 3));
  const bool hetero = rng.bernoulli(0.8);
  for (int r = 0; r < num_resources; ++r) {
    const int map_cap = static_cast<int>(rng.uniform_int(1, 2));
    const int reduce_cap = static_cast<int>(rng.uniform_int(1, 2));
    const int speed =
        hetero ? kSpeedChoices[rng.uniform_int(0, 4)] : kBaseSpeedPermille;
    m.add_resource(map_cap, reduce_cap, /*net_capacity=*/0, speed);
  }

  const int num_jobs = static_cast<int>(rng.uniform_int(1, 3));
  int tasks_left = 6;
  std::vector<CpTaskIndex> all_tasks;
  for (int ji = 0; ji < num_jobs; ++ji) {
    const Time est{rng.uniform_int(0, 10)};
    const int num_maps = static_cast<int>(
        rng.uniform_int(1, std::min<std::int64_t>(3, tasks_left)));
    tasks_left -= num_maps;
    const int num_reduces = static_cast<int>(
        rng.uniform_int(0, std::min<std::int64_t>(2, tasks_left)));
    tasks_left -= num_reduces;

    Time total_work;
    std::vector<Time> map_durs(static_cast<std::size_t>(num_maps));
    std::vector<Time> reduce_durs(static_cast<std::size_t>(num_reduces));
    for (Time& d : map_durs) {
      d = Time{rng.uniform_int(1, 8)};
      total_work += d;
    }
    for (Time& d : reduce_durs) {
      d = Time{rng.uniform_int(1, 8)};
      total_work += d;
    }
    // Slack factor from ~0.5 (often must be late) to ~2.5 (loose). Base
    // durations; a slow machine can still push a loose job late, which
    // is exactly the regime the differential must cover.
    const Time deadline = est + (total_work * rng.uniform_int(5, 25)) / 10;
    const CpJobIndex j = m.add_job(est, deadline, ji);

    for (int k = 0; k < num_maps; ++k) {
      all_tasks.push_back(m.add_task(
          j, Phase::kMap, map_durs[static_cast<std::size_t>(k)], 1, -1, 0));
    }
    for (int k = 0; k < num_reduces; ++k) {
      all_tasks.push_back(m.add_task(
          j, Phase::kReduce, reduce_durs[static_cast<std::size_t>(k)], 1, -1,
          0));
    }

    // Anti-affinity: the job's first two tasks must run on distinct
    // resources now and then. Group ids are model-global and dense.
    if (num_maps + num_reduces >= 2 && rng.bernoulli(0.3)) {
      const int group = m.num_affinity_groups();
      const std::size_t base = all_tasks.size() -
                               static_cast<std::size_t>(num_maps + num_reduces);
      m.set_affinity_group(all_tasks[base], group);
      m.set_affinity_group(all_tasks[base + 1], group);
      out.placement = true;
    }
    if (tasks_left <= 0) break;
  }

  // Candidate restrictions (data locality compiled down to the CP layer):
  // drop one resource from a task's alternative now and then. Grouped
  // tasks keep their full candidate set, mirroring the workload
  // generator's feasibility guarantee.
  for (CpTaskIndex t : all_tasks) {
    if (m.task(t).affinity_group >= 0) continue;
    if (!rng.bernoulli(0.35)) continue;
    std::vector<CpResourceIndex> keep;
    for (CpResourceIndex r = 0;
         r < static_cast<CpResourceIndex>(m.num_resources()); ++r) {
      keep.push_back(r);
    }
    keep.erase(keep.begin() +
               static_cast<std::ptrdiff_t>(rng.uniform_int(
                   0, static_cast<std::int64_t>(keep.size()) - 1)));
    m.restrict_candidates(t, keep);
    out.placement = true;
  }

  // Pin at most one map task at its job's earliest start — a task
  // already running at re-plan time, on a possibly slow machine.
  if (rng.bernoulli(0.25)) {
    for (CpTaskIndex t : all_tasks) {
      const CpTask& task = m.task(t);
      if (task.phase != Phase::kMap) continue;
      CpResourceIndex target = kAnyResource;
      for (CpResourceIndex r = 0;
           r < static_cast<CpResourceIndex>(m.num_resources()); ++r) {
        const bool candidate_ok =
            task.candidates.empty() ||
            std::find(task.candidates.begin(), task.candidates.end(), r) !=
                task.candidates.end();
        if (candidate_ok) {
          target = r;
          break;
        }
      }
      if (target == kAnyResource) break;
      m.pin_task(t, target, m.job(task.job).earliest_start);
      break;
    }
  }

  out.usable = m.validate().empty();
  return out;
}

SolveParams thorough_params(std::uint64_t seed) {
  SolveParams p;
  p.portfolio = {JobOrdering::kEdf, JobOrdering::kLeastLaxity,
                 JobOrdering::kJobId, JobOrdering::kFcfs};
  p.improvement_fails = 200000;
  p.postpone_tries = 3;
  p.lns_iterations = 40;
  p.time_limit_s = 10.0;
  p.seed = seed;
  return p;
}

TEST(HeteroOracle, SolverMatchesExhaustiveEnumerationOn500HeteroModels) {
  int compared = 0;
  int with_placement = 0;
  int skipped_budget = 0;
  std::uint64_t seed = 0;
  while (compared < 500) {
    ++seed;
    GeneratedModel gen = generate_hetero_model(seed);
    if (!gen.usable) continue;
    const Model& m = gen.model;

    const int oracle_late = audit::exhaustive_min_late(m);
    if (oracle_late < 0) {
      ++skipped_budget;
      ASSERT_LT(skipped_budget, 25) << "enumeration budget exceeded too often";
      continue;
    }

    const SolveResult result = solve(m, thorough_params(seed));
    ASSERT_TRUE(result.best.valid) << "seed " << seed;
    EXPECT_EQ(validate_solution(m, result.best), "") << "seed " << seed;
    EXPECT_EQ(audit::brute_force_check_solution(m, result.best), "")
        << "seed " << seed;
    EXPECT_EQ(result.best.num_late, oracle_late)
        << "seed " << seed << " (solver " << result.best.num_late
        << " vs exhaustive " << oracle_late << ")";
    if (result.best.num_late != oracle_late) break;
    with_placement += gen.placement ? 1 : 0;
    ++compared;
  }
  EXPECT_EQ(compared, 500);
  // The generator must actually exercise the new constraint classes, not
  // just speed factors.
  EXPECT_GT(with_placement, 150);
}

TEST(HeteroOracle, EdfFallbackIsSoundAndNeverBeatsTheOptimum) {
  int compared = 0;
  std::uint64_t seed = 1000000;  // disjoint from the solver sweep above
  while (compared < 200) {
    ++seed;
    GeneratedModel gen = generate_hetero_model(seed);
    if (!gen.usable) continue;
    const Model& m = gen.model;

    const int oracle_late = audit::exhaustive_min_late(m);
    if (oracle_late < 0) continue;

    const Solution fb = fallback_schedule(m);
    // The descent backtracks out of anti-affinity dead ends, so it finds a
    // schedule exactly when the enumeration does (INT_MAX: none exists).
    const bool exists = oracle_late < std::numeric_limits<int>::max();
    ASSERT_EQ(fb.valid, exists) << "seed " << seed;
    if (!exists) continue;
    EXPECT_EQ(validate_solution(m, fb), "") << "seed " << seed;
    EXPECT_EQ(audit::brute_force_check_solution(m, fb), "") << "seed " << seed;
    // A heuristic can tie the optimum but a "better" count would mean a
    // validator hole, not a smarter greedy.
    EXPECT_GE(fb.num_late, oracle_late) << "seed " << seed;
    ++compared;
  }
  EXPECT_EQ(compared, 200);
}

// The heuristics at production strength: the portfolio's first descents
// only (no B&B, no LNS), on the solver sweep's models and seeds. Each
// miss of the enumerated optimum is printed with its seed and gap; the
// count is bounded at its measured value, so a value-ordering regression
// (such as ranking alternatives by start instead of completion, which
// misses 39 of these 500) fails here even though the thorough sweep
// above still passes.
TEST(HeteroOracle, PortfolioOnlyMissesAreBounded) {
  int compared = 0;
  int misses = 0;
  int total_gap = 0;
  std::uint64_t seed = 0;
  while (compared < 500) {
    ++seed;
    GeneratedModel gen = generate_hetero_model(seed);
    if (!gen.usable) continue;
    const Model& m = gen.model;
    const int oracle_late = audit::exhaustive_min_late(m);
    if (oracle_late < 0) continue;

    SolveParams p;
    p.improvement_fails = 0;
    p.lns_iterations = 0;
    p.time_limit_s = 10.0;  // never binds: the count stays deterministic
    p.seed = seed;
    const SolveResult result = solve(m, p);
    ASSERT_TRUE(result.best.valid) << "seed " << seed;
    EXPECT_GE(result.best.num_late, oracle_late) << "seed " << seed;
    if (result.best.num_late > oracle_late) {
      ++misses;
      total_gap += result.best.num_late - oracle_late;
      std::printf("  miss: seed %llu, portfolio %d vs exhaustive %d (gap %d)\n",
                  static_cast<unsigned long long>(seed), result.best.num_late,
                  oracle_late, result.best.num_late - oracle_late);
    }
    ++compared;
  }
  std::printf("  %d of %d models missed, total gap %d\n", misses, compared,
              total_gap);
  EXPECT_LE(misses, kPortfolioOnlyMissBound);
}

}  // namespace
}  // namespace mrcp::cp
