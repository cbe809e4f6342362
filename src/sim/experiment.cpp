#include "sim/experiment.h"

#include "common/check.h"
#include "common/table.h"

namespace mrcp::sim {

RunMetrics summarize_run(const SimMetrics& metrics, double warmup_fraction) {
  const SimMetrics::Aggregate agg = metrics.aggregate(warmup_fraction);
  RunMetrics run;
  run.O_seconds = metrics.sched_overhead_per_job();
  run.T_seconds = agg.mean_turnaround_s;
  run.N_late = static_cast<double>(agg.late);
  run.P_percent = agg.percent_late;
  return run;
}

ReplicatedMetrics replicate(
    std::size_t replications,
    const std::function<RunMetrics(std::size_t replication)>& run) {
  MRCP_CHECK(replications >= 1);
  RunningStat o_stat;
  RunningStat t_stat;
  RunningStat n_stat;
  RunningStat p_stat;
  for (std::size_t rep = 0; rep < replications; ++rep) {
    const RunMetrics m = run(rep);
    o_stat.add(m.O_seconds);
    t_stat.add(m.T_seconds);
    n_stat.add(m.N_late);
    p_stat.add(m.P_percent);
  }
  ReplicatedMetrics out;
  out.O = confidence_interval(o_stat);
  out.T = confidence_interval(t_stat);
  out.N = confidence_interval(n_stat);
  out.P = confidence_interval(p_stat);
  out.replications = replications;
  return out;
}

std::vector<std::string> result_headers(const std::string& param_name) {
  return {param_name, "O(s)", "O±", "T(s)", "T±", "N", "P(%)", "P±"};
}

std::vector<std::string> result_row(const std::string& param_value,
                                    const ReplicatedMetrics& m) {
  return {param_value,
          Table::cell(m.O.mean, 6),
          Table::cell(m.O.half_width, 6),
          Table::cell(m.T.mean, 1),
          Table::cell(m.T.half_width, 1),
          Table::cell(m.N.mean, 1),
          Table::cell(m.P.mean, 2),
          Table::cell(m.P.half_width, 2)};
}

}  // namespace mrcp::sim
