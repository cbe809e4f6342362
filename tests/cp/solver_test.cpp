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
// solver never does worse than the plain EDF first descent, cold or
// warm-started from that descent.

/// Random instance with a dense user-precedence DAG layered on top of
/// the implicit map→reduce barrier: chains inside jobs plus cross-job
/// edges. Exercises the SearchRoot precedence graph and the priority-topo
/// decision-order rebuild behind every reset() of the solve's search.
Model precedence_heavy_model(std::uint64_t seed) {
  RandomStream rng(seed, 0x9E);
  Model m;
  m.add_resource(2, 2);
  m.add_resource(3, 1);
  std::vector<CpTaskIndex> all_maps;
  const int num_jobs = 6;
  for (int j = 0; j < num_jobs; ++j) {
    const Time est{rng.uniform_int(0, 50)};
    const CpJobIndex cj =
        m.add_job(est, est + Time{rng.uniform_int(80, 200)}, j);
    std::vector<CpTaskIndex> maps;
    const int nm = static_cast<int>(rng.uniform_int(2, 5));
    for (int t = 0; t < nm; ++t) {
      maps.push_back(m.add_task(cj, Phase::kMap, Time{rng.uniform_int(5, 40)}));
    }
    const int nr = static_cast<int>(rng.uniform_int(1, 3));
    for (int t = 0; t < nr; ++t) {
      m.add_task(cj, Phase::kReduce, Time{rng.uniform_int(5, 40)});
    }
    // Chain the job's maps: map_0 -> map_1 -> ... (workflow stages).
    for (std::size_t t = 1; t < maps.size(); ++t) {
      m.add_precedence(maps[t - 1], maps[t]);
    }
    // Cross-job edge: this job's first map waits for an earlier job's
    // map — acyclic because edges only point from lower to higher jobs.
    if (!all_maps.empty() && rng.bernoulli(0.7)) {
      const auto pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(all_maps.size()) - 1));
      m.add_precedence(all_maps[pick], maps.front());
    }
    all_maps.insert(all_maps.end(), maps.begin(), maps.end());
  }
  return m;
}

void expect_valid_and_no_worse_than_edf(const Model& m, std::uint64_t seed,
                                        const std::string& what) {
  ASSERT_EQ(m.validate(), "") << what;
  SetTimesSearch edf(m, make_job_ranks(m, JobOrdering::kEdf));
  SearchLimits greedy;
  greedy.max_fails = 0;
  greedy.stop_after_first_solution = true;
  SearchStats st;
  const Solution edf_sol = edf.run(greedy, nullptr, &st);
  ASSERT_TRUE(edf_sol.valid) << what;

  SolveParams params = fast_params();
  params.seed = seed;
  const SolveResult result = solve(m, params);
  ASSERT_TRUE(result.best.valid) << what;
  EXPECT_EQ(validate_solution(m, result.best), "") << what;
  EXPECT_LE(result.best.num_late, edf_sol.num_late) << what;

  const SolveResult warm = solve(m, params, &edf_sol);
  ASSERT_TRUE(warm.best.valid) << what;
  EXPECT_EQ(validate_solution(m, warm.best), "") << what;
  EXPECT_LE(warm.best.num_late, edf_sol.num_late) << what;
}

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
  expect_valid_and_no_worse_than_edf(m, GetParam(), "random");
  expect_valid_and_no_worse_than_edf(precedence_heavy_model(GetParam()),
                                     GetParam(), "precedence-heavy");
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
Model bound_model(std::uint64_t seed, bool with_pin, int max_jobs = 7) {
  RandomStream rng(seed, 0xB0);
  Model m;
  const int num_resources = static_cast<int>(rng.uniform_int(1, 3));
  for (int r = 0; r < num_resources; ++r) {
    m.add_resource(static_cast<int>(rng.uniform_int(1, 3)),
                   static_cast<int>(rng.uniform_int(1, 3)));
  }
  const int num_jobs = static_cast<int>(rng.uniform_int(2, max_jobs));
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

/// A copy of the solver's LNS move (promote one job to rank 0, shifting
/// the jobs ranked above it down by one), so the reference draws the very
/// neighbourhoods solve() draws.
std::vector<int> promote_job(const std::vector<int>& ranks, std::size_t job) {
  std::vector<int> out = ranks;
  const int old_rank = out[job];
  for (auto& r : out) {
    if (r < old_rank) ++r;
  }
  out[job] = 0;
  return out;
}

using DescentKey = std::pair<std::vector<int>, std::vector<std::uint8_t>>;

struct ReferenceSolve {
  Solution best;
  JobOrdering ordering = JobOrdering::kEdf;
  int winning_member = -1;
  std::vector<Solution> members;  ///< every member's descent, in order
  std::vector<DescentKey> keys;   ///< every member's (ranks, lpt) key
  Solution lns_start;             ///< incumbent after B&B, before LNS
  int lns_descents = 0;
};

/// solve() without its descent memo and without the root-bound stop:
/// every portfolio member, the B&B run and every LNS neighbourhood run
/// as independent searches, in the order solve() defines.
ReferenceSolve reference_solve(const Model& m, const SolveParams& params,
                               const Solution* warm) {
  ReferenceSolve ref;
  if (warm != nullptr && warm->valid) ref.best = *warm;
  const std::vector<std::vector<std::uint8_t>> intra = {
      adaptive_lpt_flags(m), std::vector<std::uint8_t>(m.num_jobs(), 0),
      std::vector<std::uint8_t>(m.num_jobs(), 1)};
  SearchLimits descent;
  descent.max_fails = 0;
  descent.stop_after_first_solution = true;
  descent.postpone_tries = 0;
  descent.time_limit_s = 60.0;
  auto run_descent = [&](const DescentKey& key) {
    SetTimesSearch search(m, key.first, key.second);
    SearchStats st;
    return search.run(descent, nullptr, &st);
  };
  for (JobOrdering ordering : params.portfolio) {
    for (const std::vector<std::uint8_t>& lpt : intra) {
      ref.keys.emplace_back(make_job_ranks(m, ordering), lpt);
      ref.members.push_back(run_descent(ref.keys.back()));
      const Solution& sol = ref.members.back();
      if (sol.valid && (!ref.best.valid || sol.num_late < ref.best.num_late)) {
        ref.best = sol;
        ref.ordering = ordering;
        ref.winning_member = static_cast<int>(ref.members.size()) - 1;
      }
    }
  }

  DescentKey best_key;
  if (ref.winning_member >= 0) {
    best_key = ref.keys[static_cast<std::size_t>(ref.winning_member)];
  } else {
    best_key = {make_job_ranks(m, params.portfolio.front()),
                std::vector<std::uint8_t>(m.num_jobs(), 0)};
  }
  const bool improvable = ref.best.valid && ref.best.num_late > 0;
  if (improvable && params.improvement_fails > 0) {
    SetTimesSearch search(m, best_key.first, best_key.second);
    SearchLimits limits;
    limits.max_fails = params.improvement_fails;
    limits.postpone_tries = params.postpone_tries;
    limits.time_limit_s = 60.0;
    SearchStats st;
    const Solution sol = search.run(limits, &ref.best, &st);
    if (sol.better_than(ref.best)) ref.best = sol;
  }
  ref.lns_start = ref.best;
  if (improvable && params.lns_iterations > 0) {
    RandomStream rng(params.seed, 0x1A5);
    for (int iter = 0; iter < params.lns_iterations && ref.best.num_late > 0;
         ++iter) {
      std::vector<std::size_t> late_jobs;
      for (std::size_t j = 0; j < ref.best.job_late.size(); ++j) {
        if (ref.best.job_late[j]) late_jobs.push_back(j);
      }
      const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(late_jobs.size()) - 1));
      DescentKey key{promote_job(best_key.first, late_jobs[pick]),
                     best_key.second};
      if (rng.bernoulli(0.5)) {
        std::uint8_t& flag = key.second[late_jobs[pick]];
        flag = flag != 0 ? 0 : 1;
      }
      if (m.num_jobs() >= 2 && rng.bernoulli(0.5)) {
        const auto a = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(m.num_jobs()) - 1));
        const auto b = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(m.num_jobs()) - 1));
        std::swap(key.first[a], key.first[b]);
      }
      const Solution sol = run_descent(key);
      ++ref.lns_descents;
      if (sol.better_than(ref.best)) {
        ref.best = sol;
        best_key = std::move(key);
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

/// One past the first member at the bound, or the member count.
int first_at_bound_end(const ReferenceSolve& ref, int bound) {
  for (std::size_t i = 0; i < ref.members.size(); ++i) {
    if (ref.members[i].valid && ref.members[i].num_late <= bound) {
      return static_cast<int>(i) + 1;
    }
  }
  return static_cast<int>(ref.members.size());
}

/// Members solve() runs: none when the warm start is at the
/// bound, else those up to and including the first member at the bound
/// whose key no earlier member has (a repeated key is never run twice).
int expected_members_run(const ReferenceSolve& ref, const Solution* warm,
                         int bound) {
  if (warm != nullptr && warm->valid && warm->num_late <= bound) return 0;
  const auto end = static_cast<std::size_t>(first_at_bound_end(ref, bound));
  int run = 0;
  for (std::size_t i = 0; i < end; ++i) {
    const auto first = ref.keys.begin();
    const auto here = first + static_cast<std::ptrdiff_t>(i);
    if (std::find(first, here, *here) == here) ++run;
  }
  return run;
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

    const ReferenceSolve ref = reference_solve(m, params, nullptr);
    const SolveResult got = solve(m, params);
    expect_same_solution(ref.best, got.best, what);
    EXPECT_EQ(ref.ordering, got.stats.best_ordering) << what;
    EXPECT_EQ(ref.winning_member, got.stats.winning_member) << what;
    EXPECT_EQ(got.stats.portfolio_members_run,
              expected_members_run(ref, nullptr, bound))
        << what;
    EXPECT_EQ(got.stats.portfolio_stopped_at_bound,
              ref.best.num_late <= bound)
        << what;
    const int stop_end = first_at_bound_end(ref, bound);
    if (stop_end < num_members) {
      ++stopped_early;
      later_member_first += stop_end > 1 ? 1 : 0;
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
      const ReferenceSolve warm_ref = reference_solve(m, params, &warm);
      const SolveResult warm_got = solve(m, params, &warm);
      const std::string warm_what =
          what + " warm late " + std::to_string(warm.num_late);
      expect_same_solution(warm_ref.best, warm_got.best, warm_what);
      EXPECT_EQ(warm_ref.ordering, warm_got.stats.best_ordering) << warm_what;
      EXPECT_EQ(warm_ref.winning_member, warm_got.stats.winning_member)
          << warm_what;
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

TEST(SolverMemo, SolveEqualsUnmemoizedReference) {
  // solve() skips descents whose (ranks, lpt) key it already took; the
  // reference runs every one. Plans, winner and ordering must not move,
  // for small models (2-3 jobs, where LNS keeps redrawing the same key)
  // and larger ones, with and without a warm start.
  int small_models = 0;
  int lns_improved = 0;
  int lns_repeats = 0;
  int unseeded_member = 0;  // a member better_than the LNS-start incumbent
  int warm_runs = 0;
  for (std::uint64_t seed = 1; seed <= 900; ++seed) {
    const bool small = seed % 2 == 1;
    const Model m = bound_model(seed, seed % 4 == 0, small ? 3 : 7);
    ASSERT_EQ(m.validate(), "") << "seed " << seed;
    small_models += small ? 1 : 0;
    SolveParams params;
    params.time_limit_s = 60.0;  // must not bind
    params.seed = seed;

    const ReferenceSolve ref = reference_solve(m, params, nullptr);
    std::vector<const Solution*> warms = {nullptr};
    const Solution& worst = *std::max_element(
        ref.members.begin(), ref.members.end(),
        [](const Solution& a, const Solution& b) {
          return a.num_late < b.num_late;
        });
    if (worst.valid) warms.push_back(&worst);
    for (const Solution* warm : warms) {
      const std::string what = "seed " + std::to_string(seed) +
                               (warm != nullptr ? " warm" : " cold");
      const ReferenceSolve want =
          warm != nullptr ? reference_solve(m, params, warm) : ref;
      const SolveResult got = solve(m, params, warm);
      expect_same_solution(want.best, got.best, what);
      EXPECT_EQ(want.ordering, got.stats.best_ordering) << what;
      EXPECT_EQ(want.winning_member, got.stats.winning_member) << what;
      warm_runs += warm != nullptr ? 1 : 0;
      lns_improved += got.stats.lns_improvements > 0 ? 1 : 0;
      lns_repeats += got.stats.repeat_descents_skipped > 0 ? 1 : 0;
      for (const Solution& member : want.members) {
        if (member.better_than(want.lns_start) && want.lns_descents > 0) {
          ++unseeded_member;
          break;
        }
      }
    }
  }
  EXPECT_GE(small_models, 450);
  EXPECT_GE(warm_runs, 800);
  EXPECT_GE(lns_improved, 60);
  EXPECT_GE(lns_repeats, 300);
  EXPECT_GE(unseeded_member, 15);
}

TEST(SolverMemo, TwoJobLnsRunsOnlyDistinctKeys) {
  // Two jobs give 2 rankings x 4 flag pairs = 8 keys. Job 1's deadline
  // is statically unreachable, so a job stays late and LNS draws all 20
  // neighbourhoods; yet it runs at most 8 of them.
  constexpr int kKeys = 8;
  constexpr int kDraws = 20;
  int checked = 0;
  int past_member_0 = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    RandomStream rng(seed, 0xD2);
    Model m;
    m.add_resource(static_cast<int>(rng.uniform_int(1, 2)),
                   static_cast<int>(rng.uniform_int(1, 2)));
    for (int j = 0; j < 2; ++j) {
      const Time est{rng.uniform_int(0, 20)};
      const Time deadline =
          j == 1 ? est + Time{1} : est + Time{rng.uniform_int(40, 200)};
      const CpJobIndex cj = m.add_job(est, deadline, j);
      for (int t = static_cast<int>(rng.uniform_int(2, 4)); t > 0; --t) {
        m.add_task(cj, Phase::kMap, Time{rng.uniform_int(5, 60)});
      }
      m.add_task(cj, Phase::kReduce, Time{rng.uniform_int(5, 60)});
    }
    ASSERT_EQ(m.validate(), "") << "seed " << seed;
    SolveParams params;
    params.improvement_fails = 0;
    params.lns_iterations = kDraws;
    params.time_limit_s = 60.0;
    params.seed = seed;
    const SolveResult got = solve(m, params);
    const std::string what = "seed " + std::to_string(seed);
    ASSERT_TRUE(got.best.valid) << what;
    ASSERT_GT(got.best.num_late, 0) << what;

    // Portfolio repeats reached before the root-bound stop; the rest of
    // the skipped descents are LNS draws.
    const ReferenceSolve ref = reference_solve(m, params, nullptr);
    const int bound = statically_late_jobs(m);
    const int reached = first_at_bound_end(ref, bound);
    past_member_0 += reached > 1 ? 1 : 0;
    const int portfolio_repeats =
        reached - expected_members_run(ref, nullptr, bound);
    EXPECT_EQ(ref.lns_descents, kDraws) << what;
    const std::int64_t lns_run =
        kDraws - (got.stats.repeat_descents_skipped - portfolio_repeats);
    EXPECT_GE(lns_run, 0) << what;
    EXPECT_LE(lns_run, kKeys) << what;
    ++checked;
  }
  EXPECT_EQ(checked, 40);
  EXPECT_GE(past_member_0, 5);
}

TEST(SolverDeathTest, RejectsMoreThanOneThread) {
  // solve() runs in the calling thread; SolveParams::num_threads remains
  // only for callers that still set and report it, and must be 1.
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{100}, 0);
  m.add_task(j, Phase::kMap, Time{10});
  for (int threads : {0, 2, 4}) {
    SolveParams params = fast_params();
    params.num_threads = threads;
    EXPECT_DEATH(solve(m, params),
                 "at .*solver\\.cpp:[0-9]+\n.*num_threads must be 1")
        << "num_threads " << threads;
  }
}

}  // namespace
}  // namespace mrcp::cp
