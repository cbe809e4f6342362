#include "sweep.h"

#include <cstdio>

#include "common/rng.h"

namespace mrcp::bench {

void add_common_flags(Flags& flags) {
  flags.add_int("jobs", 200, "jobs per replication (paper: steady-state runs)")
      .add_int("reps", 5, "independent replications per point")
      .add_int("seed", 42, "base seed (replication r uses a derived seed)")
      .add_double("warmup", 0.1, "warmup fraction excluded from metrics")
      .add_double("solver-budget-s", 0.1, "CP solve budget per invocation (s)")
      .add_string("csv", "", "also write results as CSV to this path");
}

SweepOptions SweepOptions::from_flags(const Flags& flags) {
  SweepOptions o;
  o.jobs = static_cast<std::size_t>(flags.get_int("jobs"));
  o.reps = static_cast<std::size_t>(flags.get_int("reps"));
  o.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  o.warmup = flags.get_double("warmup");
  o.solver_budget_s = flags.get_double("solver-budget-s");
  o.csv_path = flags.get_string("csv");
  return o;
}

SyntheticWorkloadConfig table3_defaults(const SweepOptions& options) {
  SyntheticWorkloadConfig c;
  c.num_jobs = options.jobs;
  // Table 3 defaults; ambiguous boldface values take the middle of each
  // listed range (documented in EXPERIMENTS.md).
  c.num_map_tasks = {1, 100};
  c.num_reduce_tasks = {1, 100};
  c.e_max = 50;
  c.start_prob = 0.5;
  c.s_max = 50000;
  c.deadline_multiplier_ul = 5.0;
  c.arrival_rate = 0.01;
  c.num_resources = 50;
  c.map_capacity = 2;
  c.reduce_capacity = 2;
  return c;
}

MrcpConfig default_mrcp_config(const SweepOptions& options) {
  MrcpConfig c;
  c.solve.time_limit_s = options.solver_budget_s;
  return c;
}

void run_mrcp_sweep(
    const std::string& title, const std::string& param_name,
    const std::vector<std::string>& param_values, const SweepOptions& options,
    const std::function<void(SyntheticWorkloadConfig&, std::size_t)>& mutate,
    const std::function<void(MrcpConfig&, std::size_t)>& mutate_rm) {
  std::printf("%s\n", title.c_str());
  std::printf("jobs/rep=%zu reps=%zu warmup=%.0f%% solver-budget=%.3fs\n\n",
              options.jobs, options.reps, options.warmup * 100.0,
              options.solver_budget_s);

  Table table(sim::result_headers(param_name));
  for (std::size_t vi = 0; vi < param_values.size(); ++vi) {
    const sim::ReplicatedMetrics point = sim::replicate(
        options.reps,
        [&](std::size_t rep) {
          SyntheticWorkloadConfig wc = table3_defaults(options);
          wc.seed = replication_seed(options.seed, rep);
          mutate(wc, vi);
          MrcpConfig rm = default_mrcp_config(options);
          if (mutate_rm) mutate_rm(rm, vi);
          const Workload workload = generate_synthetic_workload(wc);
          const sim::SimMetrics metrics = sim::simulate_mrcp(workload, rm);
          return sim::summarize_run(metrics, options.warmup);
        });
    table.add_row(sim::result_row(param_values[vi], point));
    std::fflush(stdout);
  }
  std::printf("%s\n", table.to_string().c_str());
  if (!options.csv_path.empty()) {
    if (table.write_csv(options.csv_path)) {
      std::printf("wrote %s\n", options.csv_path.c_str());
    } else {
      std::fprintf(stderr, "error: could not write %s\n",
                   options.csv_path.c_str());
    }
  }
}

}  // namespace mrcp::bench
