#include "core/fallback_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "reference_fallback.h"

namespace mrcp {
namespace {

using cp::CpJobIndex;
using cp::CpResourceIndex;
using cp::CpTaskIndex;
using cp::Model;
using cp::Phase;
using cp::Solution;

TEST(FallbackScheduler, EmptyModelIsValid) {
  Model m;
  m.add_resource(1, 1);
  const Solution sol = fallback_schedule(m);
  EXPECT_TRUE(sol.valid);
  EXPECT_EQ(sol.num_late, 0);
}

TEST(FallbackScheduler, SchedulesSimpleJobOnTime) {
  Model m;
  m.add_resource(2, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{200}, 0);
  m.add_task(j, Phase::kMap, Time{50});
  m.add_task(j, Phase::kMap, Time{50});
  m.add_task(j, Phase::kReduce, Time{30});
  const Solution sol = fallback_schedule(m);
  ASSERT_TRUE(sol.valid);
  EXPECT_EQ(validate_solution(m, sol), "");
  EXPECT_EQ(sol.num_late, 0);
}

TEST(FallbackScheduler, EdfOrderPrioritizesTightDeadline) {
  // One slot, two single-map jobs; job-id order would make the tight
  // job late, EDF order completes both on time.
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j0 = m.add_job(Time{0}, Time{200}, 0);
  m.add_task(j0, Phase::kMap, Time{80});
  const CpJobIndex j1 = m.add_job(Time{0}, Time{60}, 1);
  m.add_task(j1, Phase::kMap, Time{50});
  const Solution sol = fallback_schedule(m);
  ASSERT_TRUE(sol.valid);
  EXPECT_EQ(validate_solution(m, sol), "");
  EXPECT_EQ(sol.num_late, 0);
}

TEST(FallbackScheduler, RespectsPinnedTasks) {
  // The pinned map occupies the only map slot for [0, 100); the free map
  // must wait, and the reduce must start after both maps.
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{500}, 0);
  const CpTaskIndex pinned = m.add_task(j, Phase::kMap, Time{100});
  m.add_task(j, Phase::kMap, Time{50});
  const CpTaskIndex reduce = m.add_task(j, Phase::kReduce, Time{20});
  m.pin_task(pinned, 0, Time{0});
  const Solution sol = fallback_schedule(m);
  ASSERT_TRUE(sol.valid);
  EXPECT_EQ(validate_solution(m, sol), "");
  EXPECT_EQ(sol.placements[static_cast<std::size_t>(pinned)].start, Time{0});
  EXPECT_GE(sol.placements[static_cast<std::size_t>(reduce)].start, Time{150});
}

TEST(FallbackScheduler, RespectsWorkflowPrecedences) {
  Model m;
  m.add_resource(2, 2);
  const CpJobIndex j = m.add_job(Time{0}, Time{1000}, 0);
  const CpTaskIndex a = m.add_task(j, Phase::kMap, Time{40});
  const CpTaskIndex b = m.add_task(j, Phase::kMap, Time{40});
  m.add_precedence(a, b);
  const Solution sol = fallback_schedule(m);
  ASSERT_TRUE(sol.valid);
  EXPECT_EQ(validate_solution(m, sol), "");
  EXPECT_GE(sol.placements[static_cast<std::size_t>(b)].start,
            sol.placements[static_cast<std::size_t>(a)].start + Time{40});
}

TEST(FallbackScheduler, HonorsCandidateRestrictions) {
  Model m;
  m.add_resource(1, 1);
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{400}, 0);
  const CpTaskIndex t = m.add_task(j, Phase::kMap, Time{50});
  m.restrict_candidates(t, {1});
  const Solution sol = fallback_schedule(m);
  ASSERT_TRUE(sol.valid);
  EXPECT_EQ(validate_solution(m, sol), "");
  EXPECT_EQ(sol.placements[static_cast<std::size_t>(t)].resource, 1);
}

TEST(FallbackScheduler, ReturnsInvalidWhenNoHostExists) {
  // Demand 3 exceeds every capacity: the scheduler reports an invalid
  // solution instead of crashing (the RM parks such work upstream, but
  // the scheduler itself must stay total).
  Model m;
  m.add_resource(2, 2);
  const CpJobIndex j = m.add_job(Time{0}, Time{400}, 0);
  m.add_task(j, Phase::kMap, Time{50}, 3);
  const Solution sol = fallback_schedule(m);
  EXPECT_FALSE(sol.valid);
}

TEST(FallbackScheduler, Deterministic) {
  RandomStream rng(7, 0);
  Model m;
  m.add_resource(2, 2);
  m.add_resource(1, 1);
  for (int j = 0; j < 8; ++j) {
    const Time est{rng.uniform_int(0, 100)};
    const CpJobIndex cj = m.add_job(est, est + Time{rng.uniform_int(100, 600)}, j);
    const auto maps = rng.uniform_int(1, 4);
    const auto reduces = rng.uniform_int(1, 2);
    for (std::int64_t t = 0; t < maps; ++t) {
      m.add_task(cj, Phase::kMap, Time{rng.uniform_int(10, 60)});
    }
    for (std::int64_t t = 0; t < reduces; ++t) {
      m.add_task(cj, Phase::kReduce, Time{rng.uniform_int(10, 40)});
    }
  }
  const Solution s1 = fallback_schedule(m);
  const Solution s2 = fallback_schedule(m);
  ASSERT_TRUE(s1.valid);
  ASSERT_EQ(s1.placements.size(), s2.placements.size());
  for (std::size_t i = 0; i < s1.placements.size(); ++i) {
    EXPECT_EQ(s1.placements[i].resource, s2.placements[i].resource);
    EXPECT_EQ(s1.placements[i].start, s2.placements[i].start);
  }
}

TEST(FallbackScheduler, RandomModelsAlwaysValid) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    RandomStream rng(seed, 0);
    Model m;
    const auto resources = rng.uniform_int(1, 3);
    for (std::int64_t r = 0; r < resources; ++r) {
      m.add_resource(static_cast<int>(rng.uniform_int(1, 3)),
                     static_cast<int>(rng.uniform_int(1, 2)));
    }
    const auto jobs = rng.uniform_int(1, 6);
    for (std::int64_t j = 0; j < jobs; ++j) {
      const Time est{rng.uniform_int(0, 50)};
      const CpJobIndex cj =
          m.add_job(est, est + Time{rng.uniform_int(50, 400)}, static_cast<int>(j));
      const auto maps = rng.uniform_int(1, 3);
      for (std::int64_t t = 0; t < maps; ++t) {
        m.add_task(cj, Phase::kMap, Time{rng.uniform_int(5, 50)});
      }
      if (rng.uniform_int(0, 1) == 1) {
        m.add_task(cj, Phase::kReduce, Time{rng.uniform_int(5, 30)});
      }
    }
    ASSERT_EQ(m.validate(), "");
    const Solution sol = fallback_schedule(m);
    ASSERT_TRUE(sol.valid) << "seed " << seed;
    EXPECT_EQ(validate_solution(m, sol), "") << "seed " << seed;
  }
}

TEST(FallbackScheduler, BacktracksOutOfAnAntiAffinityDeadEnd) {
  // Two idle resources; maps a and b form an anti-affinity group, and b
  // can only run on resource 0. Placed first, a takes resource 0 (the
  // earliest completion, ties by index), which leaves b no host. The
  // former greedy pass stopped there; the descent moves a to resource 1.
  Model m;
  m.add_resource(1, 1);
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{400}, 0);
  const CpTaskIndex a = m.add_task(j, Phase::kMap, Time{50});
  const CpTaskIndex b = m.add_task(j, Phase::kMap, Time{50});
  m.restrict_candidates(b, {0});
  m.set_affinity_group(a, 0);
  m.set_affinity_group(b, 0);
  ASSERT_EQ(m.validate(), "");

  EXPECT_FALSE(reference::fallback_schedule(m).valid);
  const Solution sol = fallback_schedule(m);
  ASSERT_TRUE(sol.valid);
  EXPECT_EQ(validate_solution(m, sol), "");
  EXPECT_EQ(sol.placements[static_cast<std::size_t>(a)].resource, 1);
  EXPECT_EQ(sol.placements[static_cast<std::size_t>(b)].resource, 0);
  EXPECT_EQ(sol.num_late, 0);
}

/// What a random fallback model exercises (coverage counters).
struct FallbackModelShape {
  bool hetero = false;
  bool shuffled = false;  ///< a candidate list out of index order
  bool racks = false;     ///< a candidate list equal to one rack
  bool links = false;
  bool precedences = false;
  bool pinned = false;
  bool groups = false;
};

/// Can every anti-affinity group get pairwise-distinct hosts? Tried by
/// brute force over the members' eligible resources (groups have at most
/// three members). Time never matters: a later start is always possible.
bool groups_matchable(const Model& m) {
  for (int g = 0; g < m.num_affinity_groups(); ++g) {
    std::vector<std::vector<CpResourceIndex>> options;
    for (std::size_t ti = 0; ti < m.num_tasks(); ++ti) {
      const cp::CpTask& t = m.task(static_cast<CpTaskIndex>(ti));
      if (t.affinity_group != g) continue;
      std::vector<CpResourceIndex> opts;
      if (t.pinned) {
        opts.push_back(t.pinned_resource);
      } else if (t.candidates.empty()) {
        for (std::size_t r = 0; r < m.num_resources(); ++r) {
          opts.push_back(static_cast<CpResourceIndex>(r));
        }
      } else {
        opts = t.candidates;
      }
      options.push_back(std::move(opts));
    }
    std::vector<CpResourceIndex> used;
    auto assign = [&](auto&& self, std::size_t i) -> bool {
      if (i == options.size()) return true;
      for (CpResourceIndex r : options[i]) {
        if (std::find(used.begin(), used.end(), r) != used.end()) continue;
        used.push_back(r);
        if (self(self, i + 1)) return true;
        used.pop_back();
      }
      return false;
    };
    if (!assign(assign, 0)) return false;
  }
  return true;
}

/// Random model for the fallback differential: 2-4 resources striped over
/// two racks, mixed speeds, optional link capacities, 1-5 jobs of up to
/// five tasks, shuffled and rack-shaped candidate lists, cross-job
/// precedence edges, a pinned map and small anti-affinity groups. Returns
/// false when the model fails Model::validate() or a group cannot be
/// matched (the descent would then search exhaustively for nothing).
bool random_fallback_model(std::uint64_t seed, Model& m,
                           FallbackModelShape& shape) {
  constexpr int kSpeeds[] = {500, 750, 1000, 1500, 2000};
  RandomStream rng(seed, 0xFB);
  const int num_resources = static_cast<int>(rng.uniform_int(2, 4));
  const bool hetero = rng.bernoulli(0.6);
  const bool links = rng.bernoulli(0.25);
  for (int r = 0; r < num_resources; ++r) {
    m.add_resource(static_cast<int>(rng.uniform_int(1, 2)),
                   static_cast<int>(rng.uniform_int(1, 2)),
                   links ? static_cast<int>(rng.uniform_int(1, 3)) : 0,
                   hetero ? kSpeeds[rng.uniform_int(0, 4)]
                          : kBaseSpeedPermille);
  }
  shape.hetero = hetero;
  shape.links = links;

  std::vector<CpTaskIndex> all;
  const int num_jobs = static_cast<int>(rng.uniform_int(1, 5));
  for (int ji = 0; ji < num_jobs; ++ji) {
    const Time est{rng.uniform_int(0, 40)};
    const CpJobIndex j =
        m.add_job(est, est + Time{rng.uniform_int(20, 300)}, ji);
    const auto maps = rng.uniform_int(1, 3);
    const auto reduces = rng.uniform_int(0, 2);
    std::vector<CpTaskIndex> tasks;
    for (std::int64_t k = 0; k < maps + reduces; ++k) {
      const int net = links ? static_cast<int>(rng.uniform_int(0, 1)) : 0;
      tasks.push_back(m.add_task(j, k < maps ? Phase::kMap : Phase::kReduce,
                                 Time{rng.uniform_int(1, 60)}, 1, -1, net));
    }
    // Anti-affinity over two or three consecutive tasks of one phase.
    if (rng.bernoulli(0.35)) {
      const bool on_maps = reduces < 2 || rng.bernoulli(0.5);
      const std::size_t first = on_maps ? 0 : static_cast<std::size_t>(maps);
      const std::size_t count = on_maps ? static_cast<std::size_t>(maps)
                                        : static_cast<std::size_t>(reduces);
      if (count >= 2) {
        const int group = m.num_affinity_groups();
        const std::size_t members = std::min<std::size_t>(
            count, static_cast<std::size_t>(rng.uniform_int(2, 3)));
        for (std::size_t k = 0; k < members; ++k) {
          m.set_affinity_group(tasks[first + k], group);
        }
        shape.groups = true;
      }
    }
    all.insert(all.end(), tasks.begin(), tasks.end());
  }

  // Candidate lists: one rack (index order), or a random subset in
  // random order.
  for (CpTaskIndex t : all) {
    const double u = rng.uniform_real(0.0, 1.0);
    std::vector<CpResourceIndex> keep;
    if (u < 0.2) {
      const auto rack = rng.uniform_int(0, 1);
      for (int r = 0; r < num_resources; ++r) {
        if (r % 2 == rack) keep.push_back(static_cast<CpResourceIndex>(r));
      }
      shape.racks = true;
    } else if (u < 0.5) {
      for (int r = 0; r < num_resources; ++r) {
        keep.push_back(static_cast<CpResourceIndex>(r));
      }
      for (std::size_t i = keep.size() - 1; i > 0; --i) {
        const auto k = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(i)));
        std::swap(keep[i], keep[k]);
      }
      keep.resize(static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(keep.size()))));
      shape.shuffled = shape.shuffled || !std::is_sorted(keep.begin(),
                                                         keep.end());
    } else {
      continue;
    }
    m.restrict_candidates(t, std::move(keep));
  }

  // Precedence edges from a lower to a higher task index (acyclic
  // alongside the map->reduce barriers, which point the same way).
  if (all.size() >= 2 && rng.bernoulli(0.3)) {
    const auto edges = rng.uniform_int(1, 2);
    for (std::int64_t e = 0; e < edges; ++e) {
      const auto hi = static_cast<std::int64_t>(all.size()) - 1;
      const auto x = rng.uniform_int(0, hi);
      const auto y = rng.uniform_int(0, hi);
      if (x == y) continue;
      m.add_precedence(all[static_cast<std::size_t>(std::min(x, y))],
                       all[static_cast<std::size_t>(std::max(x, y))]);
      shape.precedences = true;
    }
  }

  // Pin one map without predecessors at its job's earliest start, on its
  // first candidate: a task already running at re-plan time.
  if (rng.bernoulli(0.3)) {
    const CpTaskIndex t = all[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(all.size()) - 1))];
    const cp::CpTask& task = m.task(t);
    if (task.phase == Phase::kMap && m.predecessors(t).empty()) {
      const CpResourceIndex r =
          task.candidates.empty() ? 0 : task.candidates.front();
      m.pin_task(t, r, m.job(task.job).earliest_start);
      shape.pinned = true;
    }
  }
  return m.validate().empty() && groups_matchable(m);
}

// The descent must reproduce the former greedy pass exactly wherever that
// pass found a schedule: same job order, same resource rule (earliest
// completion, ties in candidate-list order), no postponed starts.
TEST(FallbackScheduler, MatchesGreedyReference) {
  int compared = 0;
  int rescued = 0;
  int with[7] = {};
  std::uint64_t seed = 0;
  while (compared < 2000) {
    ++seed;
    ASSERT_LT(seed, 20000u) << "generator rejects too many models";
    Model m;
    FallbackModelShape shape;
    if (!random_fallback_model(seed, m, shape)) continue;

    const Solution ref = reference::fallback_schedule(m);
    const Solution sol = fallback_schedule(m);
    ASSERT_TRUE(sol.valid) << "seed " << seed;
    EXPECT_EQ(validate_solution(m, sol), "") << "seed " << seed;
    if (!ref.valid) {
      // Only an anti-affinity dead end stops the greedy pass on a
      // validated model; the descent backtracks out of it.
      EXPECT_TRUE(shape.groups) << "seed " << seed;
      ++rescued;
      continue;
    }
    ASSERT_EQ(sol.placements.size(), ref.placements.size());
    for (std::size_t i = 0; i < ref.placements.size(); ++i) {
      ASSERT_EQ(sol.placements[i].resource, ref.placements[i].resource)
          << "seed " << seed << " task " << i;
      ASSERT_EQ(sol.placements[i].start, ref.placements[i].start)
          << "seed " << seed << " task " << i;
    }
    EXPECT_EQ(sol.num_late, ref.num_late) << "seed " << seed;
    const bool flags[7] = {shape.hetero, shape.shuffled, shape.racks,
                           shape.links,  shape.precedences, shape.pinned,
                           shape.groups};
    for (int k = 0; k < 7; ++k) with[k] += flags[k] ? 1 : 0;
    ++compared;
  }
  std::printf("  %d models compared, %d greedy dead ends rescued; with "
              "hetero %d, shuffled %d, racks %d, links %d, precedences %d, "
              "pinned %d, groups %d\n",
              compared, rescued, with[0], with[1], with[2], with[3], with[4],
              with[5], with[6]);
  // Every constraint class must actually be exercised.
  for (int k = 0; k < 7; ++k) EXPECT_GT(with[k], 100) << "class " << k;
  EXPECT_GT(rescued, 0);
}

}  // namespace
}  // namespace mrcp
