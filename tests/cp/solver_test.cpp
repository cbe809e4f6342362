#include "cp/solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"

namespace mrcp::cp {
namespace {

SolveParams fast_params() {
  SolveParams p;
  p.improvement_fails = 5000;
  p.lns_iterations = 30;
  p.time_limit_s = 5.0;
  p.seed = 3;
  return p;
}

TEST(Solver, PortfolioFixesBadIdOrdering) {
  // The instance from search_test: job-id order alone leaves one late
  // job; the solver's EDF portfolio member finds the 0-late schedule.
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j0 = m.add_job(Time{0}, Time{200}, 0);
  m.add_task(j0, Phase::kMap, Time{80});
  const CpJobIndex j1 = m.add_job(Time{0}, Time{60}, 1);
  m.add_task(j1, Phase::kMap, Time{50});

  const SolveResult result = solve(m, fast_params());
  ASSERT_TRUE(result.best.valid);
  EXPECT_EQ(result.best.num_late, 0);
  EXPECT_TRUE(result.stats.proved_optimal);
  EXPECT_EQ(validate_solution(m, result.best), "");
}

TEST(Solver, EmptyModelSolves) {
  Model m;
  m.add_resource(1, 1);
  const SolveResult result = solve(m, fast_params());
  EXPECT_TRUE(result.best.valid);
  EXPECT_EQ(result.best.num_late, 0);
}

TEST(Solver, WarmStartNeverRegresses) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j0 = m.add_job(Time{0}, Time{200}, 0);
  m.add_task(j0, Phase::kMap, Time{80});
  const CpJobIndex j1 = m.add_job(Time{0}, Time{60}, 1);
  m.add_task(j1, Phase::kMap, Time{50});
  const SolveResult first = solve(m, fast_params());
  const SolveResult second = solve(m, fast_params(), &first.best);
  EXPECT_LE(second.best.num_late, first.best.num_late);
}

TEST(Solver, DeterministicForSeed) {
  Model m;
  m.add_resource(2, 2);
  for (int i = 0; i < 6; ++i) {
    const CpJobIndex j = m.add_job(Time{0}, Time{150 + 10 * i}, i);
    m.add_task(j, Phase::kMap, Time{40 + 5 * i});
    m.add_task(j, Phase::kReduce, Time{20});
  }
  const SolveResult a = solve(m, fast_params());
  const SolveResult b = solve(m, fast_params());
  ASSERT_EQ(a.best.num_late, b.best.num_late);
  for (std::size_t i = 0; i < a.best.placements.size(); ++i) {
    EXPECT_EQ(a.best.placements[i].start, b.best.placements[i].start);
    EXPECT_EQ(a.best.placements[i].resource, b.best.placements[i].resource);
  }
}

TEST(Solver, LnsImprovesOverSinglePortfolioWhenHelpful) {
  // An instance where pure EDF is suboptimal: two tight-deadline jobs and
  // one mid-deadline short job that EDF wedges between them. We only
  // check the solver does at least as well as the plain EDF descent.
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex a = m.add_job(Time{0}, Time{100}, 0);
  m.add_task(a, Phase::kMap, Time{60});
  const CpJobIndex b = m.add_job(Time{0}, Time{130}, 1);
  m.add_task(b, Phase::kMap, Time{60});
  const CpJobIndex c = m.add_job(Time{0}, Time{260}, 2);
  m.add_task(c, Phase::kMap, Time{100});

  SetTimesSearch edf(m, make_job_ranks(m, JobOrdering::kEdf));
  SearchLimits greedy;
  greedy.max_fails = 0;
  greedy.stop_after_first_solution = true;
  SearchStats st;
  const Solution edf_sol = edf.run(greedy, nullptr, &st);

  const SolveResult result = solve(m, fast_params());
  EXPECT_LE(result.best.num_late, edf_sol.num_late);
  EXPECT_EQ(validate_solution(m, result.best), "");
}

TEST(Solver, HonoursPinnedTasks) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{1000}, 0);
  const CpTaskIndex t0 = m.add_task(j, Phase::kMap, Time{50});
  m.add_task(j, Phase::kMap, Time{10});
  m.pin_task(t0, 0, Time{100});
  const SolveResult result = solve(m, fast_params());
  EXPECT_EQ(result.best.placements[0].start, Time{100});
  EXPECT_EQ(validate_solution(m, result.best), "");
}

TEST(Solver, ReportsBestOrdering) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{100}, 0);
  m.add_task(j, Phase::kMap, Time{10});
  const SolveResult result = solve(m, fast_params());
  // Single job: first portfolio member (EDF) wins.
  EXPECT_EQ(result.stats.best_ordering, JobOrdering::kEdf);
}

TEST(Solver, SolveSecondsPopulated) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{100}, 0);
  m.add_task(j, Phase::kMap, Time{10});
  const SolveResult result = solve(m, fast_params());
  EXPECT_GE(result.stats.solve_seconds, 0.0);
  EXPECT_LT(result.stats.solve_seconds, 5.0);
}

// Property sweep: random instances always yield valid solutions, and the
// solver never does worse than the plain EDF first descent.
class SolverRandomProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverRandomProperty, AlwaysValidAndNoWorseThanEdf) {
  RandomStream rng(GetParam(), 0);
  Model m;
  const int num_resources = static_cast<int>(rng.uniform_int(1, 4));
  for (int r = 0; r < num_resources; ++r) {
    m.add_resource(static_cast<int>(rng.uniform_int(1, 3)),
                   static_cast<int>(rng.uniform_int(1, 3)));
  }
  const int num_jobs = static_cast<int>(rng.uniform_int(2, 8));
  for (int jj = 0; jj < num_jobs; ++jj) {
    const Time est{rng.uniform_int(0, 100)};
    Time work;
    const int maps = static_cast<int>(rng.uniform_int(1, 5));
    const int reduces = static_cast<int>(rng.uniform_int(0, 3));
    std::vector<Time> map_durs;
    std::vector<Time> reduce_durs;
    for (int t = 0; t < maps; ++t) {
      map_durs.push_back(Time{rng.uniform_int(5, 60)});
      work += map_durs.back();
    }
    for (int t = 0; t < reduces; ++t) {
      reduce_durs.push_back(Time{rng.uniform_int(5, 60)});
      work += reduce_durs.back();
    }
    // Deadlines between "tight" and "loose".
    const Time deadline = est + work / 2 + Time{rng.uniform_int(20, 200)};
    const CpJobIndex cj = m.add_job(est, deadline, jj);
    for (Time d : map_durs) m.add_task(cj, Phase::kMap, d);
    for (Time d : reduce_durs) m.add_task(cj, Phase::kReduce, d);
  }
  ASSERT_EQ(m.validate(), "");

  SetTimesSearch edf(m, make_job_ranks(m, JobOrdering::kEdf));
  SearchLimits greedy;
  greedy.max_fails = 0;
  greedy.stop_after_first_solution = true;
  SearchStats st;
  const Solution edf_sol = edf.run(greedy, nullptr, &st);
  ASSERT_TRUE(edf_sol.valid);

  SolveParams params = fast_params();
  params.seed = GetParam();
  const SolveResult result = solve(m, params);
  ASSERT_TRUE(result.best.valid);
  EXPECT_EQ(validate_solution(m, result.best), "");
  EXPECT_LE(result.best.num_late, edf_sol.num_late);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverRandomProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---- Root-bound stop of the portfolio ----
//
// Oracle: run every portfolio member as an independent first descent
// (fresh SetTimesSearch, no shared bound, no early stop) and fold them in
// member order, a later member winning only with strictly fewer late
// jobs. With phases 2 and 3 disabled, solve() must return exactly that
// fold's solution and ordering however early it stops.

/// Random model whose jobs are sometimes statically late (a deadline
/// shorter than any task, so the root bound is > 0), optionally with one
/// pinned map.
Model bound_model(std::uint64_t seed, bool with_pin) {
  RandomStream rng(seed, 0xB0);
  Model m;
  const int num_resources = static_cast<int>(rng.uniform_int(1, 3));
  for (int r = 0; r < num_resources; ++r) {
    m.add_resource(static_cast<int>(rng.uniform_int(1, 3)),
                   static_cast<int>(rng.uniform_int(1, 3)));
  }
  const int num_jobs = static_cast<int>(rng.uniform_int(2, 7));
  for (int j = 0; j < num_jobs; ++j) {
    const Time est{rng.uniform_int(0, 80)};
    Time work;
    std::vector<Time> maps;
    std::vector<Time> reduces;
    const int nm = static_cast<int>(rng.uniform_int(1, 4));
    const int nr = static_cast<int>(rng.uniform_int(0, 2));
    for (int t = 0; t < nm; ++t) {
      maps.push_back(Time{rng.uniform_int(5, 60)});
      work += maps.back();
    }
    for (int t = 0; t < nr; ++t) {
      reduces.push_back(Time{rng.uniform_int(5, 60)});
      work += reduces.back();
    }
    const Time deadline = rng.bernoulli(0.25)
                              ? est + Time{rng.uniform_int(1, 4)}
                              : est + work / 2 + Time{rng.uniform_int(10, 150)};
    const CpJobIndex cj = m.add_job(est, deadline, j);
    std::vector<CpTaskIndex> map_tasks;
    for (Time d : maps) map_tasks.push_back(m.add_task(cj, Phase::kMap, d));
    for (Time d : reduces) m.add_task(cj, Phase::kReduce, d);
    if (with_pin && j == 0) m.pin_task(map_tasks.front(), 0, est);
  }
  return m;
}

int statically_late_jobs(const Model& m) {
  int late = 0;
  for (std::size_t j = 0; j < m.num_jobs(); ++j) {
    const auto cj = static_cast<CpJobIndex>(j);
    if (m.completion_lower_bound(cj) > m.job(cj).deadline) ++late;
  }
  return late;
}

struct ReferenceFold {
  Solution best;
  JobOrdering ordering = JobOrdering::kEdf;
  std::vector<Solution> members;  ///< every member's descent, in order
};

ReferenceFold reference_fold(const Model& m, const SolveParams& params,
                             const Solution* warm) {
  ReferenceFold ref;
  if (warm != nullptr && warm->valid) ref.best = *warm;
  const std::vector<std::vector<std::uint8_t>> intra = {
      adaptive_lpt_flags(m), std::vector<std::uint8_t>(m.num_jobs(), 0),
      std::vector<std::uint8_t>(m.num_jobs(), 1)};
  SearchLimits descent;
  descent.max_fails = 0;
  descent.stop_after_first_solution = true;
  descent.postpone_tries = 0;
  descent.time_limit_s = 60.0;
  for (JobOrdering ordering : params.portfolio) {
    for (const std::vector<std::uint8_t>& lpt : intra) {
      SetTimesSearch search(m, make_job_ranks(m, ordering), lpt);
      SearchStats st;
      ref.members.push_back(search.run(descent, nullptr, &st));
      const Solution& sol = ref.members.back();
      if (sol.valid && (!ref.best.valid || sol.num_late < ref.best.num_late)) {
        ref.best = sol;
        ref.ordering = ordering;
      }
    }
  }
  return ref;
}

void expect_same_solution(const Solution& want, const Solution& got,
                          const std::string& what) {
  ASSERT_EQ(want.valid, got.valid) << what;
  EXPECT_EQ(want.num_late, got.num_late) << what;
  EXPECT_EQ(want.total_completion, got.total_completion) << what;
  EXPECT_EQ(want.job_completion, got.job_completion) << what;
  EXPECT_EQ(want.job_late, got.job_late) << what;
  ASSERT_EQ(want.placements.size(), got.placements.size()) << what;
  for (std::size_t i = 0; i < want.placements.size(); ++i) {
    EXPECT_EQ(want.placements[i].resource, got.placements[i].resource)
        << what << " task " << i;
    EXPECT_EQ(want.placements[i].start, got.placements[i].start)
        << what << " task " << i;
  }
}

/// Members a sequential solve runs: none when the warm start is at the
/// bound, else up to and including the first member at the bound.
int expected_members_run(const ReferenceFold& ref, const Solution* warm,
                         int bound) {
  if (warm != nullptr && warm->valid && warm->num_late <= bound) return 0;
  for (std::size_t i = 0; i < ref.members.size(); ++i) {
    if (ref.members[i].valid && ref.members[i].num_late <= bound) {
      return static_cast<int>(i) + 1;
    }
  }
  return static_cast<int>(ref.members.size());
}

TEST(SolverRootBound, PortfolioMatchesFullReferenceFold) {
  SolveParams params;
  params.improvement_fails = 0;
  params.lns_iterations = 0;
  params.time_limit_s = 60.0;  // must not bind
  const int num_members = static_cast<int>(params.portfolio.size()) * 3;

  int bound_positive = 0;
  int pinned = 0;
  int stopped_early = 0;  // a non-last member reached the bound
  int later_member_first = 0;  // ... and it was not member 0
  int full_portfolio = 0;
  int warm_at_bound = 0;
  int warm_above_bound = 0;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    const bool with_pin = seed % 2 == 0;
    const Model m = bound_model(seed, with_pin);
    ASSERT_EQ(m.validate(), "") << "seed " << seed;
    const int bound = statically_late_jobs(m);
    bound_positive += bound > 0 ? 1 : 0;
    pinned += with_pin ? 1 : 0;
    const std::string what = "seed " + std::to_string(seed);

    const ReferenceFold ref = reference_fold(m, params, nullptr);
    const SolveResult got = solve(m, params);
    expect_same_solution(ref.best, got.best, what);
    EXPECT_EQ(ref.ordering, got.stats.best_ordering) << what;
    const int want_run = expected_members_run(ref, nullptr, bound);
    EXPECT_EQ(got.stats.portfolio_members_run, want_run) << what;
    EXPECT_EQ(got.stats.portfolio_stopped_at_bound,
              ref.best.num_late <= bound)
        << what;
    if (want_run < num_members) {
      ++stopped_early;
      later_member_first += want_run > 1 ? 1 : 0;
      EXPECT_LT(got.stats.portfolio_members_run, num_members) << what;
    } else {
      ++full_portfolio;
    }

    // Warm starts: the reference winner (exactly at the bound when the
    // portfolio reached it) and the worst member solution.
    std::vector<Solution> warms = {ref.best};
    const Solution& worst = *std::max_element(
        ref.members.begin(), ref.members.end(),
        [](const Solution& a, const Solution& b) {
          return a.num_late < b.num_late;
        });
    if (worst.num_late > bound) warms.push_back(worst);
    for (const Solution& warm : warms) {
      ASSERT_TRUE(warm.valid) << what;
      if (warm.num_late == bound) {
        ++warm_at_bound;
      } else {
        ++warm_above_bound;
      }
      const ReferenceFold warm_ref = reference_fold(m, params, &warm);
      const SolveResult warm_got = solve(m, params, &warm);
      const std::string warm_what =
          what + " warm late " + std::to_string(warm.num_late);
      expect_same_solution(warm_ref.best, warm_got.best, warm_what);
      EXPECT_EQ(warm_ref.ordering, warm_got.stats.best_ordering) << warm_what;
      EXPECT_EQ(warm_got.stats.portfolio_members_run,
                expected_members_run(warm_ref, &warm, bound))
          << warm_what;
    }
  }
  // Every case the stop distinguishes must actually occur.
  EXPECT_GE(bound_positive, 100);
  EXPECT_GE(pinned, 100);
  EXPECT_GE(stopped_early, 100);
  EXPECT_GE(later_member_first, 10);
  EXPECT_GE(full_portfolio, 30);
  EXPECT_GE(warm_at_bound, 100);
  EXPECT_GE(warm_above_bound, 100);
}

}  // namespace
}  // namespace mrcp::cp
