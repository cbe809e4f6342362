// Factor-at-a-time experiment runner (paper §VI.A).
//
// Each experiment point runs `replications` independent simulations
// (fresh workload seed per replication) and reports each metric as a
// mean with a 95% confidence half-width, exactly as the paper plots
// (bars originating from the average value).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "sim/metrics.h"

namespace mrcp::sim {

/// The four per-run metrics of §VI.
struct RunMetrics {
  double O_seconds = 0.0;      ///< scheduling overhead per job
  double T_seconds = 0.0;      ///< average turnaround
  double N_late = 0.0;         ///< late jobs (count)
  double P_percent = 0.0;      ///< late percentage
};

/// Build RunMetrics from a finished simulation.
RunMetrics summarize_run(const SimMetrics& metrics, double warmup_fraction);

struct ReplicatedMetrics {
  ConfidenceInterval O;
  ConfidenceInterval T;
  ConfidenceInterval N;
  ConfidenceInterval P;
  std::size_t replications = 0;
};

/// Run `replications` simulations; `run` receives the replication index
/// (the caller derives the workload seed from it, typically with
/// replication_seed()). Replications run one after another in the calling
/// thread, so each one's O is measured on an otherwise idle core.
ReplicatedMetrics replicate(
    std::size_t replications,
    const std::function<RunMetrics(std::size_t replication)>& run);

/// Standard result-table headers used by the bench binaries:
/// {<param>, O(s), ±, T(s), ±, N, P(%), ±}.
std::vector<std::string> result_headers(const std::string& param_name);

/// Format one swept point as a table row matching result_headers().
std::vector<std::string> result_row(const std::string& param_value,
                                    const ReplicatedMetrics& m);

}  // namespace mrcp::sim
