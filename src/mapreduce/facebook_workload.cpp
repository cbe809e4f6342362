#include "mapreduce/facebook_workload.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "common/rng.h"

namespace mrcp {

const std::array<FacebookJobType, 10>& facebook_job_mix() {
  static const std::array<FacebookJobType, 10> kMix = {{
      {1, 0, 380},
      {2, 0, 160},
      {10, 3, 140},
      {50, 0, 80},
      {100, 0, 60},
      {200, 50, 60},
      {400, 0, 40},
      {800, 180, 40},
      {2400, 360, 20},
      {4800, 0, 20},
  }};
  return kMix;
}

namespace {

/// Largest-remainder apportionment of the Table 4 mix to `n` jobs.
std::vector<int> apportion_types(std::size_t n) {
  const auto& mix = facebook_job_mix();
  std::vector<int> counts(mix.size(), 0);
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const double exact =
        static_cast<double>(n) * mix[i].count_per_1000 / 1000.0;
    counts[i] = static_cast<int>(exact);
    assigned += static_cast<std::size_t>(counts[i]);
    remainders.emplace_back(exact - std::floor(exact), i);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t k = 0; assigned < n; ++k, ++assigned) {
    ++counts[remainders[k % remainders.size()].second];
  }
  std::vector<int> types;
  types.reserve(n);
  for (std::size_t i = 0; i < mix.size(); ++i) {
    for (int c = 0; c < counts[i]; ++c) types.push_back(static_cast<int>(i));
  }
  return types;
}

Time sample_exec_ms(const LogNormal& dist, RandomStream& rng) {
  // LogNormal values are milliseconds; 1 tick = 1 ms. Clamp to >= 1 tick.
  const double ms = dist.sample(rng);
  return std::max(Time{1}, Time{std::llround(ms)});
}

}  // namespace

Workload generate_facebook_workload(const FacebookWorkloadConfig& config) {
  MRCP_CHECK(config.num_jobs > 0);
  MRCP_CHECK(config.arrival_rate > 0.0);

  RandomStream mix_rng(config.seed, 0);
  RandomStream arrivals(config.seed, 1);
  RandomStream exec_times(config.seed, 2);
  RandomStream deadlines(config.seed, 3);

  std::vector<int> types = apportion_types(config.num_jobs);
  mix_rng.shuffle(types.begin(), types.end());

  Workload w;
  w.cluster = Cluster::homogeneous(config.num_resources, config.map_capacity,
                                   config.reduce_capacity);
  const int total_map_slots = w.cluster.total_map_slots();
  const int total_reduce_slots = w.cluster.total_reduce_slots();

  const Exponential interarrival{config.arrival_rate};
  const Uniform deadline_mult{1.0, config.deadline_multiplier_ul};

  double arrival_seconds = 0.0;
  w.jobs.reserve(config.num_jobs);
  for (std::size_t i = 0; i < config.num_jobs; ++i) {
    const FacebookJobType& type = facebook_job_mix()[static_cast<std::size_t>(types[i])];
    Job job;
    job.id = static_cast<JobId>(i);
    arrival_seconds += interarrival.sample(arrivals);
    job.arrival_time = seconds_to_ticks(arrival_seconds);
    job.earliest_start = job.arrival_time;  // p = 0 for this workload

    job.map_tasks.reserve(static_cast<std::size_t>(type.map_tasks));
    for (int t = 0; t < type.map_tasks; ++t) {
      job.map_tasks.push_back(make_task(
          TaskType::kMap, sample_exec_ms(config.map_exec_ms, exec_times)));
    }
    job.reduce_tasks.reserve(static_cast<std::size_t>(type.reduce_tasks));
    for (int t = 0; t < type.reduce_tasks; ++t) {
      job.reduce_tasks.push_back(
          make_task(TaskType::kReduce,
                    sample_exec_ms(config.reduce_exec_ms, exec_times)));
    }

    const Time te = job.min_execution_time(total_map_slots, total_reduce_slots);
    const double mult = deadline_mult.sample(deadlines);
    job.deadline = job.earliest_start +
                   Time{std::llround(static_cast<double>(te.count()) * mult)};

    w.jobs.push_back(std::move(job));
  }
  return w;
}

}  // namespace mrcp
