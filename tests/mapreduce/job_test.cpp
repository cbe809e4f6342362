#include "mapreduce/job.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <vector>

#include "../test_util.h"
#include "common/rng.h"

namespace mrcp {
namespace {

using testutil::make_job;

TEST(LptMakespan, EmptyIsZero) {
  EXPECT_EQ(lpt_makespan({}, 4), Time{0});
}

TEST(LptMakespan, SingleMachineSums) {
  EXPECT_EQ(lpt_makespan({Time{3}, Time{5}, Time{7}}, 1), Time{15});
}

TEST(LptMakespan, EnoughMachinesGivesMax) {
  EXPECT_EQ(lpt_makespan({Time{3}, Time{5}, Time{7}}, 3), Time{7});
  EXPECT_EQ(lpt_makespan({Time{3}, Time{5}, Time{7}}, 10), Time{7});
}

TEST(LptMakespan, TwoMachinesBalanced) {
  // LPT on {7,5,3} with 2 machines: m1={7}, m2={5,3} -> 8.
  EXPECT_EQ(lpt_makespan({Time{3}, Time{5}, Time{7}}, 2), Time{8});
}

TEST(LptMakespan, EqualTasks) {
  // 6 tasks of 10 on 3 machines: 2 each -> 20.
  EXPECT_EQ(lpt_makespan({Time{10}, Time{10}, Time{10}, Time{10}, Time{10}, Time{10}}, 3), Time{20});
}

/// LPT as first written: a descending std::sort, then one priority-queue
/// pop and push per task.
Time reference_lpt_makespan(std::vector<Time> durations, int machines) {
  if (durations.empty()) return Time{0};
  if (durations.size() <= static_cast<std::size_t>(machines)) {
    return *std::max_element(durations.begin(), durations.end());
  }
  std::sort(durations.begin(), durations.end(), std::greater<>());
  std::priority_queue<Time, std::vector<Time>, std::greater<>> finish(
      std::greater<>{}, std::vector<Time>(static_cast<std::size_t>(machines)));
  Time makespan{};
  for (Time d : durations) {
    const Time end = finish.top() + d;
    finish.pop();
    finish.push(end);
    makespan = std::max(makespan, end);
  }
  return makespan;
}

// Task counts on both sides of the machine count and of the radix-sort
// cutoff, one machine, and durations from a handful of values (many ties)
// up to 1e9.
TEST(LptMakespan, MatchesPriorityQueueReference) {
  RandomStream rng(20261019, 7);
  for (int i = 0; i < 1500; ++i) {
    const int machines = rng.bernoulli(0.1)
                             ? 1
                             : static_cast<int>(rng.uniform_int(1, 80));
    const auto count = static_cast<std::size_t>(
        rng.bernoulli(0.2) ? rng.uniform_int(0, machines)
                           : rng.uniform_int(0, 3000));
    const std::int64_t top =
        rng.bernoulli(0.3) ? rng.uniform_int(1, 4) : 1'000'000'000;
    std::vector<Time> durations;
    for (std::size_t k = 0; k < count; ++k) {
      durations.push_back(Time{rng.uniform_int(1, top)});
    }
    ASSERT_EQ(lpt_makespan(durations, machines),
              reference_lpt_makespan(durations, machines))
        << "case " << i << ": " << count << " tasks on " << machines;
  }
}

TEST(JobAccessors, CountsAndTotals) {
  const Job j = make_job(0, Time{0}, Time{0}, Time{1000}, {Time{10}, Time{20}, Time{30}}, {Time{40}, Time{50}});
  EXPECT_EQ(j.num_map_tasks(), 3u);
  EXPECT_EQ(j.num_reduce_tasks(), 2u);
  EXPECT_EQ(j.num_tasks(), 5u);
  EXPECT_EQ(j.total_map_time(), Time{60});
  EXPECT_EQ(j.total_reduce_time(), Time{90});
  EXPECT_EQ(j.total_work(), Time{150});
  EXPECT_EQ(j.max_map_time(), Time{30});
  EXPECT_EQ(j.max_reduce_time(), Time{50});
}

TEST(JobAccessors, FlatTaskIndexing) {
  const Job j = make_job(0, Time{0}, Time{0}, Time{1000}, {Time{10}, Time{20}}, {Time{30}});
  EXPECT_EQ(j.task(0).exec_time, Time{10});
  EXPECT_EQ(j.task(0).type, TaskType::kMap);
  EXPECT_EQ(j.task(1).exec_time, Time{20});
  EXPECT_EQ(j.task(2).exec_time, Time{30});
  EXPECT_EQ(j.task(2).type, TaskType::kReduce);
}

TEST(JobAccessors, Laxity) {
  // L_j = d_j - s_j - sum(e_t) = 1000 - 100 - 150 = 750.
  const Job j = make_job(0, Time{50}, Time{100}, Time{1000}, {Time{10}, Time{20}, Time{30}}, {Time{40}, Time{50}});
  EXPECT_EQ(j.laxity(), Time{750});
}

TEST(MinExecutionTime, SequentialPhases) {
  // Maps {10,20} on 2 slots -> 20; reduces {30} on 1 slot -> 30; TE = 50.
  const Job j = make_job(0, Time{0}, Time{0}, Time{1000}, {Time{10}, Time{20}}, {Time{30}});
  EXPECT_EQ(j.min_execution_time(2, 1), Time{50});
}

TEST(MinExecutionTime, MapOnlyJob) {
  const Job j = make_job(0, Time{0}, Time{0}, Time{1000}, {Time{10}, Time{20}, Time{30}}, {});
  EXPECT_EQ(j.min_execution_time(1, 5), Time{60});
  EXPECT_EQ(j.min_execution_time(3, 5), Time{30});
}

TEST(MinExecutionTime, FullParallelism) {
  const Job j = make_job(0, Time{0}, Time{0}, Time{1000}, {Time{10}, Time{10}, Time{10}}, {Time{20}, Time{20}});
  // 3 map slots, 2 reduce slots: 10 + 20 = 30.
  EXPECT_EQ(j.min_execution_time(3, 2), Time{30});
}

TEST(ValidateJob, AcceptsGoodJob) {
  EXPECT_EQ(validate_job(make_job(0, Time{0}, Time{0}, Time{100}, {Time{10}}, {Time{10}})), "");
  EXPECT_EQ(validate_job(make_job(5, Time{10}, Time{50}, Time{100}, {Time{1}}, {})), "");
}

TEST(ValidateJob, RejectsNegativeId) {
  Job j = make_job(0, Time{0}, Time{0}, Time{100}, {Time{10}}, {});
  j.id = -3;
  EXPECT_NE(validate_job(j), "");
}

TEST(ValidateJob, RejectsStartBeforeArrival) {
  Job j = make_job(0, Time{100}, Time{50}, Time{500}, {Time{10}}, {});
  EXPECT_NE(validate_job(j), "");
}

TEST(ValidateJob, RejectsDeadlineBeforeStart) {
  Job j = make_job(0, Time{0}, Time{100}, Time{100}, {Time{10}}, {});
  EXPECT_NE(validate_job(j), "");
}

TEST(ValidateJob, RejectsEmptyJob) {
  Job j = make_job(0, Time{0}, Time{0}, Time{100}, {}, {});
  EXPECT_NE(validate_job(j), "");
}

TEST(ValidateJob, RejectsNonPositiveExecTime) {
  Job j = make_job(0, Time{0}, Time{0}, Time{100}, {Time{0}}, {});
  EXPECT_NE(validate_job(j), "");
}

TEST(ValidateJob, RejectsWrongPhaseType) {
  Job j = make_job(0, Time{0}, Time{0}, Time{100}, {Time{10}}, {Time{10}});
  j.map_tasks[0].type = TaskType::kReduce;
  EXPECT_NE(validate_job(j), "");
}

TEST(ValidateJob, RejectsBadResReq) {
  Job j = make_job(0, Time{0}, Time{0}, Time{100}, {Time{10}}, {});
  j.map_tasks[0].res_req = 0;
  EXPECT_NE(validate_job(j), "");
}

TEST(ValidateJob, PlacementErrorsNameThePhase) {
  const Job good =
      make_job(0, Time{0}, Time{0}, Time{100}, {Time{10}}, {Time{10}});
  auto with = [&](bool reduce, auto edit) {
    Job j = good;
    edit(reduce ? j.reduce_tasks[0] : j.map_tasks[0]);
    return validate_job(j);
  };
  for (const bool reduce : {false, true}) {
    const std::string phase = reduce ? "reduce" : "map";
    EXPECT_EQ(with(reduce, [](Task& t) { t.candidates = {2, -1}; }),
              phase + " task with negative candidate resource");
    EXPECT_EQ(with(reduce, [](Task& t) { t.candidates = {3, 1, 3}; }),
              phase + " task with duplicate candidate resource");
    EXPECT_EQ(with(reduce, [](Task& t) { t.racks = {-2}; }),
              phase + " task with negative rack id");
    EXPECT_EQ(with(reduce, [](Task& t) { t.racks = {0, 0}; }),
              phase + " task with duplicate rack id");
    EXPECT_EQ(with(reduce, [](Task& t) { t.affinity_group = -2; }),
              phase + " task with affinity group below -1");
    EXPECT_EQ(with(reduce, [](Task& t) { t.candidates = {0, 4}; }), "");
  }
}

TEST(TaskTypeName, Names) {
  EXPECT_STREQ(task_type_name(TaskType::kMap), "map");
  EXPECT_STREQ(task_type_name(TaskType::kReduce), "reduce");
}

TEST(TimeConversion, RoundTrips) {
  EXPECT_EQ(seconds_to_ticks(1.0), Time{1000});
  EXPECT_EQ(seconds_to_ticks(0.5), Time{500});
  EXPECT_DOUBLE_EQ(ticks_to_seconds(Time{1500}), 1.5);
}

}  // namespace
}  // namespace mrcp
