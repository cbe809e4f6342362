// Differential testing of the full solver against exhaustive enumeration.
//
// For models small enough to enumerate (<= 7 free tasks here), the
// audit-layer oracle walks every candidate-respecting resource assignment
// crossed with every precedence-feasible task permutation (serial SGS
// generates all active schedules, and the paper's sum-N_j objective is
// regular, so the true optimum is among them). The solver — portfolio,
// branch-and-bound and LNS combined — must land on the same late-job
// count on every instance, and its schedule must pass both validators.
//
// Any divergence here is a propagation or search soundness bug, the
// exact class of defect that would silently bend the paper's Figs. 2-9.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "cp/audit.h"
#include "cp/model.h"
#include "cp/solver.h"

namespace mrcp::cp {
namespace {

struct GeneratedModel {
  Model model;
  bool usable = false;
};

/// Random small model: 1-2 resources, 1-3 jobs, <= 7 tasks total, mixed
/// tight/loose deadlines, occasional candidate restrictions, pinned
/// tasks, workflow precedences and link demands.
GeneratedModel generate_model(std::uint64_t seed) {
  RandomStream rng(seed, 0xD1FF);
  GeneratedModel out;
  Model& m = out.model;

  const int num_resources = static_cast<int>(rng.uniform_int(1, 2));
  const bool with_links = rng.bernoulli(0.25);
  std::vector<int> map_caps;
  std::vector<int> reduce_caps;
  for (int r = 0; r < num_resources; ++r) {
    const int map_cap = static_cast<int>(rng.uniform_int(1, 2));
    const int reduce_cap = static_cast<int>(rng.uniform_int(1, 2));
    const int net_cap = with_links ? static_cast<int>(rng.uniform_int(0, 2)) : 0;
    m.add_resource(map_cap, reduce_cap, net_cap);
    map_caps.push_back(map_cap);
    reduce_caps.push_back(reduce_cap);
  }
  const int max_map_cap = *std::max_element(map_caps.begin(), map_caps.end());
  const int max_reduce_cap =
      *std::max_element(reduce_caps.begin(), reduce_caps.end());

  const int num_jobs = static_cast<int>(rng.uniform_int(1, 3));
  int tasks_left = 7;
  std::vector<CpTaskIndex> all_tasks;
  for (int ji = 0; ji < num_jobs; ++ji) {
    const Time est{rng.uniform_int(0, 10)};
    const int num_maps =
        static_cast<int>(rng.uniform_int(1, std::min<std::int64_t>(3, tasks_left)));
    tasks_left -= num_maps;
    const int num_reduces = static_cast<int>(
        rng.uniform_int(0, std::min<std::int64_t>(2, tasks_left)));
    tasks_left -= num_reduces;

    Time total_work;
    // Deadline set after tasks are known; add_job first, patch via a
    // second job if needed — Model has no deadline setter, so draw the
    // durations first.
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
    // Slack factor from ~0.5 (often must be late) to ~2.5 (loose).
    const Time deadline =
        est + (total_work * rng.uniform_int(5, 25)) / 10;
    const CpJobIndex j = m.add_job(est, deadline, ji);

    for (int k = 0; k < num_maps; ++k) {
      const int demand =
          max_map_cap > 1 && rng.bernoulli(0.2) ? 2 : 1;
      const int net_demand =
          with_links && rng.bernoulli(0.4) ? static_cast<int>(rng.uniform_int(1, 2))
                                           : 0;
      all_tasks.push_back(m.add_task(j, Phase::kMap,
                                     map_durs[static_cast<std::size_t>(k)],
                                     demand, -1, net_demand));
    }
    for (int k = 0; k < num_reduces; ++k) {
      const int demand =
          max_reduce_cap > 1 && rng.bernoulli(0.2) ? 2 : 1;
      all_tasks.push_back(m.add_task(j, Phase::kReduce,
                                     reduce_durs[static_cast<std::size_t>(k)],
                                     demand, -1, 0));
    }
    if (tasks_left <= 0) break;
  }

  // Candidate restrictions: drop one resource from a task's alternative
  // now and then, keeping at least one capacity-feasible candidate.
  if (m.num_resources() > 1) {
    for (CpTaskIndex t : all_tasks) {
      if (!rng.bernoulli(0.3)) continue;
      const CpTask& task = m.task(t);
      std::vector<CpResourceIndex> keep;
      for (CpResourceIndex r = 0;
           r < static_cast<CpResourceIndex>(m.num_resources()); ++r) {
        const CpResource& res = m.resource(r);
        if (res.capacity(task.phase) < task.demand) continue;
        if (task.net_demand > 0 && m.links_constrained() &&
            res.net_capacity < task.net_demand) {
          continue;
        }
        keep.push_back(r);
      }
      if (keep.size() < 2) continue;
      keep.erase(keep.begin() +
                 static_cast<std::ptrdiff_t>(rng.uniform_int(
                     0, static_cast<std::int64_t>(keep.size()) - 1)));
      m.restrict_candidates(t, keep);
    }
  }

  // Pin at most one map task, at its job's earliest start on a feasible
  // resource — mirrors a task already running at re-plan time.
  if (rng.bernoulli(0.2) && !all_tasks.empty()) {
    for (CpTaskIndex t : all_tasks) {
      const CpTask& task = m.task(t);
      if (task.phase != Phase::kMap) continue;
      CpResourceIndex target = kAnyResource;
      for (CpResourceIndex r = 0;
           r < static_cast<CpResourceIndex>(m.num_resources()); ++r) {
        const CpResource& res = m.resource(r);
        const bool candidate_ok =
            task.candidates.empty() ||
            std::find(task.candidates.begin(), task.candidates.end(), r) !=
                task.candidates.end();
        const bool net_ok = task.net_demand == 0 || !m.links_constrained() ||
                            res.net_capacity >= task.net_demand;
        if (candidate_ok && net_ok && res.capacity(task.phase) >= task.demand) {
          target = r;
          break;
        }
      }
      if (target == kAnyResource) break;
      m.pin_task(t, target, m.job(task.job).earliest_start);
      break;
    }
  }

  // Workflow precedence between two tasks of different jobs occasionally
  // (maps only, to keep the DAG trivially acyclic alongside map->reduce).
  if (all_tasks.size() >= 2 && rng.bernoulli(0.25)) {
    std::vector<CpTaskIndex> maps;
    for (CpTaskIndex t : all_tasks) {
      if (m.task(t).phase == Phase::kMap && !m.task(t).pinned) maps.push_back(t);
    }
    if (maps.size() >= 2) {
      m.add_precedence(maps.front(), maps.back());
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

TEST(DifferentialOracle, SolverMatchesExhaustiveEnumerationOn500Models) {
  int compared = 0;
  int skipped_budget = 0;
  std::uint64_t seed = 0;
  while (compared < 500) {
    ++seed;
    GeneratedModel gen = generate_model(seed);
    if (!gen.usable) continue;
    const Model& m = gen.model;

    const int oracle_late = audit::exhaustive_min_late(m);
    if (oracle_late < 0) {
      // Enumeration budget exceeded — should be rare at this size.
      ++skipped_budget;
      ASSERT_LT(skipped_budget, 25) << "enumeration budget exceeded too often";
      continue;
    }

    const SolveResult result = solve(m, thorough_params(seed));
    ASSERT_TRUE(result.best.valid) << "seed " << seed;
    // Feasibility: both the production validator and the independent
    // brute-force oracle must accept the schedule.
    EXPECT_EQ(validate_solution(m, result.best), "") << "seed " << seed;
    EXPECT_EQ(audit::brute_force_check_solution(m, result.best), "")
        << "seed " << seed;
    // Objective: exact agreement with the enumerated optimum.
    EXPECT_EQ(result.best.num_late, oracle_late)
        << "seed " << seed << " (solver " << result.best.num_late
        << " vs exhaustive " << oracle_late << ")";
    if (result.best.num_late != oracle_late) {
      // One counterexample is enough to diagnose; don't spam 500.
      break;
    }
    ++compared;
  }
  EXPECT_EQ(compared, 500);
}

}  // namespace
}  // namespace mrcp::cp
