// Replay passes: drive a fresh scheduler through its public API with the
// event stream of a finished simulation and time every call.
//
// The simulation times its resource manager only in aggregate (the
// paper's O). A replay recovers the per-call latency distribution from
// outside the library, without touching it:
//
//   * MRCP-RM learns about the world only through submit(), reschedule(),
//     handle_resource_down/up() and next_deferred_release() — it infers
//     task completions from its own plan. Feeding it the simulation's
//     arrivals, its deferral wake-ups and the SimMetrics::downtime log in
//     time order therefore reproduces every invocation the simulation
//     made; replay_mrcp() checks that by comparing invocation and solve
//     counts with the simulation's.
//   * MinEDF-WC is driven by task completions, so replay_minedf() runs its
//     own event loop on the DES kernel, completing each launched task at
//     its planned end (exact on the homogeneous fault-free cluster it is
//     used on), and checks the launches against the executed trace.
#pragma once

#include <cstdint>
#include <vector>

#include "baseline/minedf_wc.h"
#include "core/mrcp_rm.h"
#include "harness/trace.h"
#include "mapreduce/workload.h"
#include "sim/metrics.h"

namespace perfbench {

enum class CallKind : std::uint8_t {
  kSubmit,      ///< MrcpRm::submit
  kReschedule,  ///< MrcpRm::reschedule; every MinEDF-WC dispatching call
  kFaultApi,    ///< MrcpRm::handle_resource_down / handle_resource_up
};

struct TimedCall {
  CallKind kind = CallKind::kReschedule;
  std::int64_t ns = 0;
};

struct ReplayResult {
  std::vector<TimedCall> calls;  ///< in call order
  double wall_seconds = 0.0;     ///< whole replay, event loop included
};

/// Replay a simulation of `workload` (stragglers already applied) into
/// `rm`, which must be freshly constructed with the simulation's cluster
/// and config. With a tracer, every call also records a span.
ReplayResult replay_mrcp(const mrcp::Workload& workload,
                         const std::vector<mrcp::sim::DownInterval>& downtime,
                         mrcp::MrcpRm& rm, Tracer* tracer);

struct MinEdfReplay {
  ReplayResult timing;
  std::uint64_t dispatches = 0;
  /// The replay launched exactly the (job, task, start, end) intervals of
  /// the simulation's executed trace.
  bool matches_trace = false;
};

/// Replay a fault-free MinEDF-WC simulation of a homogeneous, placement-
/// free workload. `executed` is the simulation's executed trace. Calls
/// are timed but never spanned: a replay makes hundreds of thousands.
MinEdfReplay replay_minedf(
    const mrcp::Workload& workload, const mrcp::baseline::MinEdfConfig& config,
    const std::vector<mrcp::sim::ExecutedTask>& executed);

}  // namespace perfbench
