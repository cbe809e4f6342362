// google-benchmark microbenchmarks of the CP engine: timetable profile
// operations and full solves at several instance sizes. These bound the
// per-invocation cost that makes up the paper's O metric.
//
// In addition to the google-benchmark suite, the binary always writes
// BENCH_cp_micro.json (self-timed: profile query ns/op, solve wall-time
// on a small and an enlarged workload, and the per-phase breakdown) so
// the perf trajectory of the hot path is tracked in a machine-readable
// form. See docs/perf.md for how to read it.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "cp/profile.h"
#include "cp/solver.h"

namespace mrcp::cp {
namespace {

void BM_ProfileAddRemove(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  RandomStream rng(1, 0);
  std::vector<std::pair<Time, Time>> intervals;
  intervals.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Time s{rng.uniform_int(0, 100000)};
    intervals.emplace_back(s, rng.uniform_int(1, 500));
  }
  for (auto _ : state) {
    Profile p(64);
    for (const auto& [s, d] : intervals) p.add(s, d, 1);
    for (const auto& [s, d] : intervals) p.remove(s, d, 1);
    benchmark::DoNotOptimize(p.num_events());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n));
}
BENCHMARK(BM_ProfileAddRemove)->Arg(100)->Arg(1000)->Arg(5000);

void BM_ProfileEarliestFeasible(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  RandomStream rng(2, 0);
  Profile p(64);
  for (std::size_t i = 0; i < n; ++i) {
    const Time est{rng.uniform_int(0, 100000)};
    const Time dur{rng.uniform_int(1, 500)};
    const Time start = p.earliest_feasible(est, dur, 1);
    p.add(start, dur, 1);
  }
  Time query;
  for (auto _ : state) {
    query = (query + Time{7919}) % Time{100000};
    benchmark::DoNotOptimize(p.earliest_feasible(query, Time{100}, 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ProfileEarliestFeasible)->Arg(100)->Arg(1000)->Arg(5000);

/// Build a random open-batch model: `jobs` jobs of ~100 tasks on the
/// Table 3 default cluster (combined resource, as MRCP-RM solves it).
Model make_model(int jobs, std::uint64_t seed) {
  RandomStream rng(seed, 0);
  Model m;
  m.add_resource(100, 100);  // combined: 50 resources x (2, 2)
  for (int j = 0; j < jobs; ++j) {
    const Time est{rng.uniform_int(0, 1000) * 1000};
    Time work;
    std::vector<Time> maps;
    std::vector<Time> reduces;
    const auto k_m = rng.uniform_int(1, 100);
    const auto k_r = rng.uniform_int(1, 100);
    for (std::int64_t t = 0; t < k_m; ++t) {
      maps.push_back(Time{rng.uniform_int(1, 50) * 1000});
      work += maps.back();
    }
    const Time base = 3 * work / k_r;
    for (std::int64_t t = 0; t < k_r; ++t) {
      reduces.push_back(base + Time{rng.uniform_int(1, 10) * 1000});
    }
    const Time te = work / 100 + base + Time{10000};
    const Time deadline =
        est + Time{static_cast<std::int64_t>(static_cast<double>(te.count()) *
                                             rng.uniform_real(1.0, 5.0))};
    const CpJobIndex cj = m.add_job(est, deadline, j);
    for (Time d : maps) m.add_task(cj, Phase::kMap, d);
    for (Time d : reduces) m.add_task(cj, Phase::kReduce, d);
  }
  return m;
}

void BM_SolveGreedyPortfolio(benchmark::State& state) {
  const Model m = make_model(static_cast<int>(state.range(0)), 3);
  SolveParams params;
  params.improvement_fails = 0;
  params.lns_iterations = 0;
  params.time_limit_s = 60.0;
  for (auto _ : state) {
    SolveResult result = solve(m, params);
    benchmark::DoNotOptimize(result.best.num_late);
  }
  state.counters["tasks"] = static_cast<double>(m.num_tasks());
}
BENCHMARK(BM_SolveGreedyPortfolio)->Arg(2)->Arg(10)->Arg(25);

void BM_SolveWithImprovement(benchmark::State& state) {
  const Model m = make_model(static_cast<int>(state.range(0)), 4);
  SolveParams params;
  params.improvement_fails = 500;
  params.lns_iterations = 10;
  params.time_limit_s = 60.0;
  for (auto _ : state) {
    SolveResult result = solve(m, params);
    benchmark::DoNotOptimize(result.best.num_late);
  }
  state.counters["tasks"] = static_cast<double>(m.num_tasks());
}
BENCHMARK(BM_SolveWithImprovement)->Arg(2)->Arg(10);

/// Portfolio plus LNS on the 25-job model and on an enlarged 60-job one
/// where per-member search work dominates setup.
void BM_SolveLns(benchmark::State& state) {
  const Model m = make_model(static_cast<int>(state.range(0)), 3);
  SolveParams params;
  params.improvement_fails = 0;
  params.lns_iterations = 20;
  params.time_limit_s = 60.0;
  for (auto _ : state) {
    SolveResult result = solve(m, params);
    benchmark::DoNotOptimize(result.best.num_late);
  }
  state.counters["tasks"] = static_cast<double>(m.num_tasks());
}
BENCHMARK(BM_SolveLns)->Arg(25)->Arg(60)->Unit(benchmark::kMillisecond);

/// The pre-flat-timeline profile (sorted map of usage deltas), kept
/// here as the bench baseline the JSON compares against.
class MapProfileBaseline {
 public:
  explicit MapProfileBaseline(int capacity) : capacity_(capacity) {}

  Time earliest_feasible(Time est, Time duration, int demand) const {
    int usage = 0;
    auto it = delta_.begin();
    for (; it != delta_.end() && it->first <= est; ++it) usage += it->second;
    Time candidate = est;
    bool in_feasible = usage + demand <= capacity_;
    while (true) {
      const Time next_change = (it == delta_.end()) ? kMaxTime : it->first;
      if (in_feasible && next_change - candidate >= duration) return candidate;
      if (it == delta_.end()) return candidate;
      const Time seg_start = next_change;
      while (it != delta_.end() && it->first == seg_start) {
        usage += it->second;
        ++it;
      }
      const bool feasible_now = usage + demand <= capacity_;
      if (feasible_now && !in_feasible) candidate = seg_start;
      in_feasible = feasible_now;
    }
  }

  void add(Time start, Time duration, int demand) {
    apply(start, duration, demand);
  }
  void remove(Time start, Time duration, int demand) {
    apply(start, duration, -demand);
  }

 private:
  void apply(Time start, Time duration, int delta) {
    delta_[start] += delta;
    if (delta_[start] == 0) delta_.erase(start);
    delta_[start + duration] -= delta;
    auto it = delta_.find(start + duration);
    if (it != delta_.end() && it->second == 0) delta_.erase(it);
  }

  int capacity_;
  std::map<Time, int> delta_;
};

/// Self-timed measurements for BENCH_cp_micro.json: median-of-3 runs,
/// coarse but machine-comparable across commits.
double best_of_seconds(int runs, const std::function<void()>& fn) {
  double best = 1e300;
  for (int i = 0; i < runs; ++i) {
    Stopwatch sw;
    fn();
    best = std::min(best, sw.elapsed_seconds());
  }
  return best;
}

void write_bench_json(const char* path) {
  // Profile query cost on a ~10k-event timetable (the earliest_feasible
  // shape the innermost search loop issues).
  constexpr int kIntervals = 5000;
  constexpr int kQueries = 200000;
  RandomStream rng(2, 0);
  Profile p(64);
  for (int i = 0; i < kIntervals; ++i) {
    const Time est{rng.uniform_int(0, 100000)};
    const Time dur{rng.uniform_int(1, 500)};
    p.add(p.earliest_feasible(est, dur, 1), dur, 1);
  }
  MapProfileBaseline pmap(64);
  {
    RandomStream rmap(2, 0);
    for (int i = 0; i < kIntervals; ++i) {
      const Time est{rmap.uniform_int(0, 100000)};
      const Time dur{rmap.uniform_int(1, 500)};
      pmap.add(pmap.earliest_feasible(est, dur, 1), dur, 1);
    }
  }
  Time sink;
  const double query_s = best_of_seconds(3, [&] {
    Time q;
    for (int i = 0; i < kQueries; ++i) {
      q = (q + Time{7919}) % Time{100000};
      sink += p.earliest_feasible(q, Time{100}, 1);
    }
  });
  // Far fewer queries for the map baseline: each one is a linear scan.
  constexpr int kMapQueries = kQueries / 50;
  const double map_query_s = best_of_seconds(3, [&] {
    Time q;
    for (int i = 0; i < kMapQueries; ++i) {
      q = (q + Time{7919}) % Time{100000};
      sink += pmap.earliest_feasible(q, Time{100}, 1);
    }
  });
  const double add_remove_s = best_of_seconds(3, [&] {
    RandomStream r2(1, 0);
    Profile q(64);
    std::vector<std::pair<Time, Time>> ivs;
    ivs.reserve(kIntervals);
    for (int i = 0; i < kIntervals; ++i) {
      ivs.emplace_back(r2.uniform_int(0, 100000), r2.uniform_int(1, 500));
    }
    for (const auto& [s, d] : ivs) q.add(s, d, 1);
    for (const auto& [s, d] : ivs) q.remove(s, d, 1);
    sink += Time{static_cast<std::int64_t>(q.num_events())};
  });

  // Solve wall-time on the Table 3 / Fig. 2-3-shaped combined-resource
  // model. Two instances: the historical 25-job workload and an enlarged
  // 60-job one where per-member search work dominates setup.
  SolveParams params;
  params.improvement_fails = 0;
  params.lns_iterations = 20;
  params.time_limit_s = 60.0;
  struct SolveSample {
    double wall_s = 0.0;
    SolveResult result;
  };
  auto time_solve = [&](const Model& m) {
    SolveSample s;
    s.wall_s = best_of_seconds(3, [&] { s.result = solve(m, params); });
    return s;
  };
  const Model m = make_model(25, 3);
  const Model m_large = make_model(60, 3);
  const SolveSample small = time_solve(m);
  const SolveSample large = time_solve(m_large);

  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "error: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"profile_events\": %zu,\n", p.num_events());
  std::fprintf(f, "  \"profile_earliest_feasible_ns_per_op\": %.1f,\n",
               query_s * 1e9 / kQueries);
  std::fprintf(f, "  \"profile_earliest_feasible_ns_per_op_map_baseline\": %.1f,\n",
               map_query_s * 1e9 / kMapQueries);
  std::fprintf(f, "  \"profile_query_speedup_vs_map\": %.1f,\n",
               query_s > 0 ? (map_query_s / kMapQueries) / (query_s / kQueries)
                           : 0.0);
  std::fprintf(f, "  \"profile_add_remove_ns_per_op\": %.1f,\n",
               add_remove_s * 1e9 / (2.0 * kIntervals));
  std::fprintf(f, "  \"solve_workload\": \"table3-combined-25jobs\",\n");
  std::fprintf(f, "  \"solve_tasks\": %zu,\n", m.num_tasks());
  std::fprintf(f, "  \"solve_num_late\": %d,\n", small.result.best.num_late);
  std::fprintf(f, "  \"solve_status\": \"%s\",\n",
               solve_status_name(small.result.status));
  std::fprintf(f, "  \"solve_budget_used_s\": %.6f,\n",
               small.result.wall_seconds);
  std::fprintf(f, "  \"solve_wall_s\": %.6f,\n", small.wall_s);
  std::fprintf(f, "  \"solve_phase_portfolio_s\": %.6f,\n",
               small.result.stats.portfolio_seconds);
  std::fprintf(f, "  \"solve_phase_improvement_s\": %.6f,\n",
               small.result.stats.improvement_seconds);
  std::fprintf(f, "  \"solve_phase_lns_s\": %.6f,\n",
               small.result.stats.lns_seconds);
  std::fprintf(f, "  \"solve_large_workload\": \"table3-combined-60jobs\",\n");
  std::fprintf(f, "  \"solve_large_tasks\": %zu,\n", m_large.num_tasks());
  std::fprintf(f, "  \"solve_large_num_late\": %d,\n",
               large.result.best.num_late);
  std::fprintf(f, "  \"solve_large_wall_s\": %.6f,\n", large.wall_s);
  std::fprintf(f, "  \"solve_large_phase_portfolio_s\": %.6f,\n",
               large.result.stats.portfolio_seconds);
  std::fprintf(f, "  \"solve_large_phase_improvement_s\": %.6f,\n",
               large.result.stats.improvement_seconds);
  std::fprintf(f, "  \"solve_large_phase_lns_s\": %.6f,\n",
               large.result.stats.lns_seconds);
  std::fprintf(f, "  \"checksum\": %lld\n", static_cast<long long>(sink.count()));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace
}  // namespace mrcp::cp

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  mrcp::cp::write_bench_json("BENCH_cp_micro.json");
  return 0;
}
