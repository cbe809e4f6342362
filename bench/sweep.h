// Shared scaffolding for the figure-reproduction benches.
//
// Every bench is a factor-at-a-time sweep (paper §VI.A): one parameter
// varies, the others sit at the Table 3 defaults, each point is averaged
// over replications with 95% confidence intervals, and the binary prints
// one table row per swept value (O, T, N, P — the series the paper
// plots) plus a CSV file when --csv is given.
//
// Defaults are scaled down (fewer jobs/replications than the paper's
// steady-state runs) so the whole suite finishes in minutes on one core;
// pass --jobs/--reps to run at paper scale.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/table.h"
#include "core/mrcp_rm.h"
#include "mapreduce/synthetic_workload.h"
#include "sim/cluster_sim.h"
#include "sim/experiment.h"

namespace mrcp::bench {

/// Registers the flags shared by all synthetic-workload sweeps.
void add_common_flags(Flags& flags);

/// Common knobs parsed from flags.
struct SweepOptions {
  std::size_t jobs = 120;
  std::size_t reps = 3;
  std::uint64_t seed = 42;
  double warmup = 0.1;
  double solver_budget_s = 0.1;
  std::string csv_path;

  static SweepOptions from_flags(const Flags& flags);
};

/// Table 3 defaults (boldface column of the paper, with documented
/// middle-of-range assumptions — see EXPERIMENTS.md).
SyntheticWorkloadConfig table3_defaults(const SweepOptions& options);

MrcpConfig default_mrcp_config(const SweepOptions& options);

/// Run one factor-at-a-time sweep with MRCP-RM: for each value, the
/// mutator adjusts the workload config, `reps` replications run, and one
/// table row is printed.
void run_mrcp_sweep(
    const std::string& title, const std::string& param_name,
    const std::vector<std::string>& param_values, const SweepOptions& options,
    const std::function<void(SyntheticWorkloadConfig&, std::size_t value_index)>&
        mutate,
    const std::function<void(MrcpConfig&, std::size_t value_index)>&
        mutate_rm = nullptr);

}  // namespace mrcp::bench
