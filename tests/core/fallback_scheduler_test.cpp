#include "core/fallback_scheduler.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"

namespace mrcp {
namespace {

using cp::CpJobIndex;
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

}  // namespace
}  // namespace mrcp
