// SearchRoot sharing and SetTimesSearch::reset() determinism: a search
// cached across reset()s must behave exactly like a freshly constructed
// one for every (job ranking, intra-job order) — including models with
// pinned tasks and user-precedence DAGs, warm starts, repeated runs of
// the same configuration, and runs that stop in the middle of
// branch-and-bound. run() restores the root state on exit, so reset()
// only rebuilds the decision order; these tests are the executable
// statement of that contract (audited internally by audit_at_root() in
// MRCP_AUDIT builds).
#include "cp/search.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "cp/model.h"
#include "cp/solution.h"

namespace mrcp::cp {
namespace {

SearchLimits first_descent_limits() {
  SearchLimits l;
  l.max_fails = 0;
  l.stop_after_first_solution = true;
  l.postpone_tries = 0;
  l.time_limit_s = 5.0;
  return l;
}

SearchLimits bnb_limits() {
  SearchLimits l;
  l.max_fails = 2000;
  l.postpone_tries = 2;
  l.time_limit_s = 5.0;
  return l;
}

/// Random instance optionally exercising every piece of root state
/// SearchRoot precomputes: pinned tasks (timetable replay, fixed
/// completions, possibly statically-late jobs) and a user-precedence DAG
/// (the priority-topo decision-order rebuild). `tight` quarters every
/// deadline window (same draws otherwise) so that some jobs are late and
/// branch-and-bound has work to do.
Model random_model(std::uint64_t seed, bool with_pins, bool with_precedences,
                   bool tight = false) {
  RandomStream rng(seed, 0x5E);
  Model m;
  const CpResourceIndex r0 = m.add_resource(2, 2);
  m.add_resource(3, 1);
  std::vector<CpTaskIndex> prev_maps;
  const int num_jobs = static_cast<int>(rng.uniform_int(4, 8));
  for (int j = 0; j < num_jobs; ++j) {
    const Time est{rng.uniform_int(0, 60)};
    const std::int64_t window = rng.uniform_int(60, 180);
    const CpJobIndex cj =
        m.add_job(est, est + Time{tight ? window / 4 : window}, j);
    std::vector<CpTaskIndex> maps;
    const int nm = static_cast<int>(rng.uniform_int(1, 4));
    for (int t = 0; t < nm; ++t) {
      maps.push_back(m.add_task(cj, Phase::kMap, Time{rng.uniform_int(5, 40)}));
    }
    const int nr = static_cast<int>(rng.uniform_int(0, 2));
    for (int t = 0; t < nr; ++t) {
      m.add_task(cj, Phase::kReduce, Time{rng.uniform_int(5, 40)});
    }
    if (with_pins && j == 0) {
      // Pin the first job's first map: exercises the pinned replay and
      // the fixed map-end/completion root state.
      m.pin_task(maps.front(), r0, est);
    }
    if (with_precedences) {
      for (std::size_t t = 1; t < maps.size(); ++t) {
        m.add_precedence(maps[t - 1], maps[t]);
      }
      if (!prev_maps.empty() && rng.bernoulli(0.6)) {
        m.add_precedence(prev_maps.front(), maps.back());
      }
    }
    prev_maps = maps;
  }
  return m;
}

void expect_identical(const Solution& a, const Solution& b,
                      const std::string& what) {
  ASSERT_EQ(a.valid, b.valid) << what;
  ASSERT_EQ(a.num_late, b.num_late) << what;
  ASSERT_EQ(a.total_completion, b.total_completion) << what;
  ASSERT_EQ(a.placements.size(), b.placements.size()) << what;
  for (std::size_t i = 0; i < a.placements.size(); ++i) {
    ASSERT_EQ(a.placements[i].resource, b.placements[i].resource)
        << what << " task " << i;
    ASSERT_EQ(a.placements[i].start, b.placements[i].start)
        << what << " task " << i;
  }
}

struct Config {
  JobOrdering ordering;
  std::uint8_t lpt;  ///< all-FIFO (0) or all-LPT (1) intra-job order
};

const Config kConfigs[] = {
    {JobOrdering::kEdf, 0},         {JobOrdering::kEdf, 1},
    {JobOrdering::kLeastLaxity, 0}, {JobOrdering::kLeastLaxity, 1},
    {JobOrdering::kJobId, 0},       {JobOrdering::kFcfs, 1},
};

class SearchRootReuse
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool, bool>> {
};

TEST_P(SearchRootReuse, ReusedSearchMatchesFreshAcrossConfigs) {
  const auto [seed, with_pins, with_precedences] = GetParam();
  const Model m = random_model(seed, with_pins, with_precedences);
  ASSERT_EQ(m.validate(), "");

  const SearchRoot root(m);
  SetTimesSearch reused(root);
  const SearchLimits limits = first_descent_limits();
  for (const Config& cfg : kConfigs) {
    const std::vector<int> ranks = make_job_ranks(m, cfg.ordering);
    const std::vector<std::uint8_t> lpt(m.num_jobs(), cfg.lpt);

    SetTimesSearch fresh(m, ranks, lpt);
    SearchStats fresh_stats;
    const Solution want = fresh.run(limits, nullptr, &fresh_stats);
    ASSERT_TRUE(want.valid);
    ASSERT_EQ(validate_solution(m, want), "");

    reused.reset(ranks, lpt);
    SearchStats reused_stats;
    const Solution got = reused.run(limits, nullptr, &reused_stats);
    expect_identical(want, got,
                     std::string("reused vs fresh, ordering ") +
                         job_ordering_name(cfg.ordering) +
                         (cfg.lpt ? " lpt" : " fifo"));
    EXPECT_EQ(fresh_stats.decisions, reused_stats.decisions);
    EXPECT_EQ(fresh_stats.fails, reused_stats.fails);
  }
}

TEST_P(SearchRootReuse, RepeatedSameConfigRunsAreIdentical) {
  const auto [seed, with_pins, with_precedences] = GetParam();
  const Model m = random_model(seed, with_pins, with_precedences);
  ASSERT_EQ(m.validate(), "");

  const SearchRoot root(m);
  SetTimesSearch search(root);
  const std::vector<int> ranks = make_job_ranks(m, JobOrdering::kEdf);
  const SearchLimits limits = first_descent_limits();

  search.reset(ranks);
  SearchStats st0;
  const Solution first = search.run(limits, nullptr, &st0);
  for (int rep = 0; rep < 3; ++rep) {
    search.reset(ranks);
    SearchStats st;
    const Solution again = search.run(limits, nullptr, &st);
    expect_identical(first, again, "repeat " + std::to_string(rep));
    EXPECT_EQ(st0.decisions, st.decisions);
  }
}

TEST_P(SearchRootReuse, WarmStartedBnBMatchesFresh) {
  const auto [seed, with_pins, with_precedences] = GetParam();
  const Model m = random_model(seed, with_pins, with_precedences);
  ASSERT_EQ(m.validate(), "");

  const std::vector<int> ranks = make_job_ranks(m, JobOrdering::kLeastLaxity);
  const SearchRoot root(m);
  SetTimesSearch reused(root);

  // First descent produces the incumbent, then a full branch-and-bound
  // run (backtracking, postponement) from the same reused object must
  // match a fresh search byte for byte.
  reused.reset(ranks);
  SearchStats st_inc;
  const Solution incumbent =
      reused.run(first_descent_limits(), nullptr, &st_inc);
  ASSERT_TRUE(incumbent.valid);

  SetTimesSearch fresh(m, ranks);
  SearchStats fresh_stats;
  const Solution want = fresh.run(bnb_limits(), &incumbent, &fresh_stats);

  reused.reset(ranks);
  SearchStats reused_stats;
  const Solution got = reused.run(bnb_limits(), &incumbent, &reused_stats);
  expect_identical(want, got, "warm-started B&B reused vs fresh");
  EXPECT_EQ(fresh_stats.decisions, reused_stats.decisions);
  EXPECT_EQ(fresh_stats.fails, reused_stats.fails);
  EXPECT_EQ(fresh_stats.exhausted, reused_stats.exhausted);
}

TEST_P(SearchRootReuse, ResetAfterMidBnBStopMatchesFresh) {
  // A B&B run cut by its fail budget returns with decisions still
  // applied below the root; the next reset()/run() must not see them.
  const auto [seed, with_pins, with_precedences] = GetParam();
  const Model m = random_model(seed, with_pins, with_precedences, true);
  ASSERT_EQ(m.validate(), "");
  const std::vector<int> ranks = make_job_ranks(m, JobOrdering::kEdf);
  const std::vector<int> other = make_job_ranks(m, JobOrdering::kLeastLaxity);
  const std::vector<std::uint8_t> lpt(m.num_jobs(), 1);

  SearchLimits cut = bnb_limits();
  cut.max_fails = 3;
  const SearchRoot root(m);
  SetTimesSearch reused(root);
  reused.reset(ranks);
  SearchStats cut_stats;
  const Solution cut_sol = reused.run(cut, nullptr, &cut_stats);
  ASSERT_TRUE(cut_sol.valid);

  SetTimesSearch fresh_cut(m, ranks);
  SearchStats fresh_cut_stats;
  expect_identical(fresh_cut.run(cut, nullptr, &fresh_cut_stats), cut_sol,
                   "cut B&B fresh vs root-shared");
  EXPECT_EQ(fresh_cut_stats.fails, cut_stats.fails);

  // Re-run the same cut search, then switch ranking and intra-job order.
  reused.reset(ranks);
  SearchStats again_stats;
  expect_identical(cut_sol, reused.run(cut, nullptr, &again_stats),
                   "cut B&B rerun after reset");
  EXPECT_EQ(cut_stats.decisions, again_stats.decisions);
  EXPECT_EQ(cut_stats.fails, again_stats.fails);

  for (const SearchLimits& limits : {first_descent_limits(), bnb_limits()}) {
    SetTimesSearch fresh(m, other, lpt);
    SearchStats fresh_stats;
    const Solution want = fresh.run(limits, nullptr, &fresh_stats);
    reused.reset(other, lpt);
    SearchStats reused_stats;
    const Solution got = reused.run(limits, nullptr, &reused_stats);
    expect_identical(want, got, "after a cut B&B, reused vs fresh");
    EXPECT_EQ(fresh_stats.decisions, reused_stats.decisions);
    EXPECT_EQ(fresh_stats.fails, reused_stats.fails);
    EXPECT_EQ(fresh_stats.exhausted, reused_stats.exhausted);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SearchRootReuse,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 6),
                       ::testing::Bool(), ::testing::Bool()));

TEST(SearchRootShared, ManySearchesOneRootAgree) {
  // Several searches over one root, interleaved, must not interfere:
  // the root is immutable and each search owns its mutable state.
  const Model m = random_model(11, true, true);
  ASSERT_EQ(m.validate(), "");
  const SearchRoot root(m);
  const std::vector<int> ranks = make_job_ranks(m, JobOrdering::kEdf);

  SetTimesSearch a(root);
  SetTimesSearch b(root);
  a.reset(ranks);
  b.reset(ranks);
  SearchStats sa;
  SearchStats sb;
  const Solution ra = a.run(first_descent_limits(), nullptr, &sa);
  const Solution rb = b.run(first_descent_limits(), nullptr, &sb);
  expect_identical(ra, rb, "two searches, one root");
}

TEST(SearchRootShared, MidBnBStopsHappen) {
  // The cut-B&B reuse test above only means something if a 3-fail budget
  // does stop searches part-way: count the seeds where it does.
  int cut = 0;
  for (std::uint64_t seed = 1; seed < 6; ++seed) {
    for (const bool with_pins : {false, true}) {
      const Model m = random_model(seed, with_pins, false, true);
      SetTimesSearch search(m, make_job_ranks(m, JobOrdering::kEdf));
      SearchLimits limits = bnb_limits();
      limits.max_fails = 3;
      SearchStats st;
      search.run(limits, nullptr, &st);
      cut += st.fails > limits.max_fails && !st.exhausted ? 1 : 0;
    }
  }
  EXPECT_GE(cut, 3);
}

TEST(SearchRootSharedDeathTest, ResetRejectsRankingsThatAreNotPermutations) {
  const Model m = random_model(3, false, false);
  ASSERT_GE(m.num_jobs(), 3u);
  const SearchRoot root(m);
  SetTimesSearch search(root);
  std::vector<int> ranks = make_job_ranks(m, JobOrdering::kEdf);
  search.reset(ranks);  // a permutation is accepted

  std::vector<int> duplicate = ranks;
  duplicate[2] = duplicate[1];
  EXPECT_DEATH(search.reset(duplicate),
               "job_rank is not a permutation \\(job 2 has rank [0-9]+, "
               "also held by job 1\\)");
  std::vector<int> out_of_range = ranks;
  out_of_range[0] = static_cast<int>(m.num_jobs());
  EXPECT_DEATH(search.reset(out_of_range),
               "job_rank is not a permutation \\(job 0 has rank [0-9]+, out "
               "of range");
  std::vector<int> negative = ranks;
  negative[1] = -1;
  EXPECT_DEATH(search.reset(negative), "job 1 has rank -1, out of range");
}

TEST(SearchRootShared, LateCountIsTheStaticallyLateJobs) {
  // late_count() is the solver's portfolio stopping bound: it must count
  // exactly the jobs whose completion lower bound passes their deadline,
  // and no schedule the search finds may have fewer late jobs.
  int positive = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    RandomStream rng(seed, 0x1C);
    Model m;
    const CpResourceIndex r0 = m.add_resource(2, 1);
    m.add_resource(1, 2);
    const int num_jobs = static_cast<int>(rng.uniform_int(2, 6));
    for (int j = 0; j < num_jobs; ++j) {
      const Time est{rng.uniform_int(0, 50)};
      const Time deadline = est + Time{rng.uniform_int(1, 90)};
      const CpJobIndex cj = m.add_job(est, deadline, j);
      const CpTaskIndex first =
          m.add_task(cj, Phase::kMap, Time{rng.uniform_int(5, 40)});
      m.add_task(cj, Phase::kReduce, Time{rng.uniform_int(5, 40)});
      if (j == 0 && seed % 2 == 0) m.pin_task(first, r0, est + Time{30});
    }
    ASSERT_EQ(m.validate(), "") << "seed " << seed;

    int want = 0;
    for (std::size_t j = 0; j < m.num_jobs(); ++j) {
      const auto cj = static_cast<CpJobIndex>(j);
      if (m.completion_lower_bound(cj) > m.job(cj).deadline) ++want;
    }
    const SearchRoot root(m);
    EXPECT_EQ(root.late_count(), want) << "seed " << seed;
    positive += want > 0 ? 1 : 0;

    SetTimesSearch search(root);
    for (JobOrdering ordering : {JobOrdering::kEdf, JobOrdering::kJobId}) {
      search.reset(make_job_ranks(m, ordering));
      SearchStats st;
      const Solution sol = search.run(bnb_limits(), nullptr, &st);
      ASSERT_TRUE(sol.valid);
      EXPECT_GE(sol.num_late, root.late_count()) << "seed " << seed;
    }
  }
  EXPECT_GE(positive, 10);
}

}  // namespace
}  // namespace mrcp::cp
