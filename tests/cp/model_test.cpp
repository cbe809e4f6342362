#include "cp/model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace mrcp::cp {
namespace {

Model two_job_model() {
  Model m;
  m.add_resource(2, 2);
  const CpJobIndex j0 = m.add_job(Time{0}, Time{100}, 10);
  m.add_task(j0, Phase::kMap, Time{20});
  m.add_task(j0, Phase::kMap, Time{30});
  m.add_task(j0, Phase::kReduce, Time{40});
  const CpJobIndex j1 = m.add_job(Time{50}, Time{300}, 11);
  m.add_task(j1, Phase::kMap, Time{10});
  return m;
}

TEST(CpModel, Accessors) {
  const Model m = two_job_model();
  EXPECT_EQ(m.num_resources(), 1u);
  EXPECT_EQ(m.num_jobs(), 2u);
  EXPECT_EQ(m.num_tasks(), 4u);
  EXPECT_EQ(m.job(0).map_tasks.size(), 2u);
  EXPECT_EQ(m.job(0).reduce_tasks.size(), 1u);
  EXPECT_EQ(m.job(1).map_tasks.size(), 1u);
  EXPECT_EQ(m.task(2).phase, Phase::kReduce);
  EXPECT_EQ(m.task(2).duration, Time{40});
  EXPECT_EQ(m.job(0).external_id, 10);
}

TEST(CpModel, ValidatesCleanModel) {
  EXPECT_EQ(two_job_model().validate(), "");
}

TEST(CpModel, RejectsEmptyResources) {
  Model m;
  EXPECT_NE(m.validate(), "");
}

TEST(CpModel, RejectsJobWithoutTasks) {
  Model m;
  m.add_resource(1, 1);
  m.add_job(Time{0}, Time{10});
  EXPECT_NE(m.validate(), "");
}

TEST(CpModel, RejectsDemandExceedingCapacity) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{100});
  m.add_task(j, Phase::kMap, Time{10}, /*demand=*/2);
  EXPECT_NE(m.validate(), "");
}

TEST(CpModel, DemandFitsSomeCandidate) {
  Model m;
  m.add_resource(1, 1);
  m.add_resource(4, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{100});
  const CpTaskIndex t = m.add_task(j, Phase::kMap, Time{10}, /*demand=*/3);
  EXPECT_EQ(m.validate(), "");
  // Restricting to the small resource breaks it.
  m.restrict_candidates(t, {0});
  EXPECT_NE(m.validate(), "");
}

TEST(CpModel, StaticEarliestStartMaps) {
  const Model m = two_job_model();
  EXPECT_EQ(m.static_earliest_start(0), Time{0});
  EXPECT_EQ(m.static_earliest_start(3), Time{50});  // job 1's s_j
}

TEST(CpModel, StaticEarliestStartReduceAfterMaps) {
  const Model m = two_job_model();
  // Reduce of job 0: maps could end at earliest max(0+20, 0+30) = 30.
  EXPECT_EQ(m.static_earliest_start(2), Time{30});
}

TEST(CpModel, StaticEarliestStartPinnedTask) {
  Model m = two_job_model();
  m.pin_task(0, 0, Time{5});
  EXPECT_EQ(m.static_earliest_start(0), Time{5});
  // Reduce bound uses the pinned map start: max(5+20, 0+30) = 30.
  EXPECT_EQ(m.static_earliest_start(2), Time{30});
  m.pin_task(1, 0, Time{40});  // second map pinned at 40, ends 70
  EXPECT_EQ(m.static_earliest_start(2), Time{70});
}

TEST(CpModel, CompletionLowerBound) {
  const Model m = two_job_model();
  // Job 0: maps end >= 30, reduce ends >= 30 + 40 = 70.
  EXPECT_EQ(m.completion_lower_bound(0), Time{70});
  // Job 1: single 10-tick map from s_j = 50 -> 60.
  EXPECT_EQ(m.completion_lower_bound(1), Time{60});
}

TEST(CpModel, CompletionLowerBoundMapOnlyJob) {
  Model m;
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{10}, Time{100});
  m.add_task(j, Phase::kMap, Time{25});
  EXPECT_EQ(m.completion_lower_bound(j), Time{35});
}

/// The completion lower bound as the per-task formula: every task ends
/// no earlier than static_earliest_start() plus its duration lower bound,
/// maxed with the energetic bound. completion_lower_bound() computes the
/// same value in one pass per job.
Time per_task_completion_lower_bound(const Model& m, CpJobIndex job) {
  const CpJob& j = m.job(job);
  auto duration_lb = [&](CpTaskIndex t) {
    return m.task(t).pinned ? m.duration_on(t, m.task(t).pinned_resource)
                            : m.min_duration(t);
  };
  Time completion = j.earliest_start;
  Time map_work{};
  Time reduce_work{};
  for (const auto* tasks : {&j.map_tasks, &j.reduce_tasks}) {
    for (CpTaskIndex t : *tasks) {
      completion =
          std::max(completion, m.static_earliest_start(t) + duration_lb(t));
      if (m.task(t).pinned) continue;
      (tasks == &j.map_tasks ? map_work : reduce_work) += duration_lb(t);
    }
  }
  std::int64_t map_slots = 0;
  std::int64_t reduce_slots = 0;
  for (const CpResource& r : m.resources()) {
    map_slots += r.map_capacity;
    reduce_slots += r.reduce_capacity;
  }
  Time energetic = j.earliest_start;
  if (map_work > Time{0}) energetic += ceil_div(map_work, map_slots);
  if (reduce_work > Time{0}) energetic += ceil_div(reduce_work, reduce_slots);
  return std::max(completion, energetic);
}

TEST(CpModel, CompletionLowerBoundMatchesPerTaskFormula) {
  // Random models mixing pinned maps, pinned reduces, heterogeneous
  // speeds and user precedences (within and across jobs, to pinned and
  // free predecessors).
  int pinned_reduces = 0;
  int bound_from_pinned_map = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    RandomStream rng(seed, 0x1B);
    Model m;
    const int num_resources = static_cast<int>(rng.uniform_int(1, 4));
    for (int r = 0; r < num_resources; ++r) {
      m.add_resource(static_cast<int>(rng.uniform_int(1, 3)),
                     static_cast<int>(rng.uniform_int(1, 3)), 0,
                     rng.bernoulli(0.5) ? 1000 : 500 * static_cast<int>(
                                                         rng.uniform_int(1, 4)));
    }
    std::vector<CpTaskIndex> all;
    const int num_jobs = static_cast<int>(rng.uniform_int(1, 6));
    for (int j = 0; j < num_jobs; ++j) {
      const Time est{rng.uniform_int(0, 80)};
      const CpJobIndex cj = m.add_job(est, est + Time{rng.uniform_int(1, 200)}, j);
      const int nm = static_cast<int>(rng.uniform_int(1, 5));
      const int nr = static_cast<int>(rng.uniform_int(0, 4));
      for (int t = 0; t < nm + nr; ++t) {
        const Phase phase = t < nm ? Phase::kMap : Phase::kReduce;
        const CpTaskIndex ct =
            m.add_task(cj, phase, Time{rng.uniform_int(1, 60)});
        if (rng.bernoulli(0.3)) {
          const auto r = static_cast<CpResourceIndex>(
              rng.uniform_int(0, num_resources - 1));
          // Pinned starts before, at and after s_j.
          m.pin_task(ct, r, Time{rng.uniform_int(0, 150)});
          if (phase == Phase::kReduce) ++pinned_reduces;
        }
        if (!all.empty() && rng.bernoulli(0.4)) {
          const auto k = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(all.size()) - 1));
          m.add_precedence(all[k], ct);
        }
        all.push_back(ct);
      }
    }
    for (std::size_t j = 0; j < m.num_jobs(); ++j) {
      const auto cj = static_cast<CpJobIndex>(j);
      const Time want = per_task_completion_lower_bound(m, cj);
      ASSERT_EQ(m.completion_lower_bound(cj), want)
          << "seed " << seed << " job " << j;
      bool pinned_map = false;
      for (CpTaskIndex t : m.job(cj).map_tasks) {
        pinned_map = pinned_map || m.task(t).pinned;
      }
      if (pinned_map && !m.job(cj).reduce_tasks.empty()) {
        ++bound_from_pinned_map;
      }
    }
  }
  // The sweep must actually reach the cases the one-pass barrier handles.
  EXPECT_GE(pinned_reduces, 50);
  EXPECT_GE(bound_from_pinned_map, 50);
}

TEST(CpModel, ValidateMessagesNameTheTaskOrJob) {
  {
    Model m;
    m.add_resource(1, 1);
    const CpJobIndex j = m.add_job(Time{0}, Time{100});
    m.add_task(j, Phase::kMap, Time{10});
    m.add_task(j, Phase::kMap, Time{10}, /*demand=*/2);
    EXPECT_EQ(m.validate(),
              "task 1: demand exceeds every candidate's capacity");
  }
  {
    Model m;
    m.add_resource(1, 1);
    m.add_resource(1, 1);
    const CpJobIndex j = m.add_job(Time{0}, Time{100});
    const CpTaskIndex t = m.add_task(j, Phase::kMap, Time{10});
    m.restrict_candidates(t, {0});
    m.pin_task(t, 1, Time{0});
    EXPECT_EQ(m.validate(), "task 0: pinned resource not among candidates");
  }
  {
    Model m;
    m.add_resource(1, 0);
    m.add_resource(1, 1);
    const CpJobIndex j = m.add_job(Time{0}, Time{100});
    const CpTaskIndex t = m.add_task(j, Phase::kReduce, Time{10});
    m.pin_task(t, 0, Time{0});
    EXPECT_EQ(m.validate(), "task 0: pinned to resource without capacity");
  }
  {
    Model m = two_job_model();
    m.add_job(Time{0}, Time{10});
    EXPECT_EQ(m.validate(), "job 2: no tasks");
  }
}

TEST(CpModel, PinnedResourceMustBeCandidate) {
  Model m;
  m.add_resource(1, 1);
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{100});
  const CpTaskIndex t = m.add_task(j, Phase::kMap, Time{10});
  m.restrict_candidates(t, {0});
  m.pin_task(t, 1, Time{0});
  EXPECT_NE(m.validate(), "");
}

TEST(CpModel, PinnedNeedsCapacity) {
  Model m;
  m.add_resource(1, 0);  // no reduce slots
  m.add_resource(1, 1);
  const CpJobIndex j = m.add_job(Time{0}, Time{100});
  const CpTaskIndex t = m.add_task(j, Phase::kReduce, Time{10});
  m.pin_task(t, 0, Time{0});
  EXPECT_NE(m.validate(), "");
}

}  // namespace
}  // namespace mrcp::cp
