// Open-system cluster simulation drivers (paper §VI).
//
// Both drivers replay a Workload's Poisson arrival stream through the DES
// kernel against the same simulated cluster; they differ in the resource
// manager:
//
//   simulate_mrcp    — plan-based. Each arrival (and each §V.E deferral
//                      release) invokes MrcpRm::reschedule(); the driver
//                      executes the published plan, cancelling the
//                      pending completion events of any re-planned
//                      not-yet-started task. Scheduling takes zero
//                      simulated time (the paper runs MRCP-RM on its own
//                      CPU); its wall-clock cost is recorded as O.
//
//   simulate_minedf  — dynamic. Arrivals and task completions drive the
//                      MinEDF-WC dispatch loop directly.
//
// With validate_execution on, the executed trace is checked after the
// run (exactly-once completion, s_j, host-scaled durations, candidates
// and racks, downtime, kills at failures) and then by the shared
// schedule checker: slot and link capacity, the map→reduce barrier,
// workflow precedences and anti-affinity. This is the simulation's
// ground truth — a resource manager bug cannot hide behind its own
// bookkeeping.
#pragma once

#include <cstdint>
#include <string>

#include "baseline/minedf_wc.h"
#include "core/mrcp_rm.h"
#include "mapreduce/workload.h"
#include "sim/fault_injector.h"
#include "sim/metrics.h"

namespace mrcp::sim {

/// Crash-tolerance knobs for simulate_mrcp (docs/crash_recovery.md).
/// Everything defaults to off: with an empty journal_prefix the driver
/// takes the exact pre-durability code path — no journal writes, no
/// snapshots, byte-identical output.
struct DurabilityOptions {
  /// Path prefix of the durability files: the write-ahead journal lives
  /// at "<prefix>.journal", snapshots at "<prefix>.snap". Empty disables
  /// the whole durability layer.
  std::string journal_prefix;
  /// Capture a full world snapshot whenever the journal's total record
  /// count crosses a multiple of this. 0 = journal only; recovery then
  /// cold-restores by re-running the entire journal from scratch.
  std::uint64_t snapshot_every = 0;
  /// Resume from the on-disk snapshot + journal left behind by a
  /// previous (crashed) run instead of starting fresh.
  bool restore = false;
  /// Crash-injection hook (the recovery harness): persist exactly this
  /// many journal records, silently drop every later write — what a
  /// process death between two appends leaves on disk — and abandon the
  /// run at the next event boundary (SimMetrics::crash_stopped). 0 = off.
  std::uint64_t crash_after_records = 0;

  bool enabled() const { return !journal_prefix.empty(); }
  std::string journal_path() const { return journal_prefix + ".journal"; }
  std::string snapshot_path() const { return journal_prefix + ".snap"; }
};

struct SimOptions {
  bool validate_execution = true;
  /// Fault injection (resource failures, stragglers). Defaults to all
  /// knobs off, in which case both drivers behave bit-identically to a
  /// fault-free build. Both drivers see the same fault trace for a given
  /// config, so the policies are compared under identical failures.
  FaultConfig faults;
  /// Write-ahead journal + snapshots (simulate_mrcp only; off by
  /// default).
  DurabilityOptions durability;
};

SimMetrics simulate_mrcp(const Workload& workload, const MrcpConfig& config,
                         const SimOptions& options = {});

SimMetrics simulate_minedf(const Workload& workload,
                           const baseline::MinEdfConfig& config = {},
                           const SimOptions& options = {});

/// Checks executed intervals against the workload (see the header
/// comment). Empty string when consistent.
std::string validate_execution(const Workload& workload,
                               const std::vector<ExecutedTask>& executed);

/// Fault-aware variant: killed attempts hold capacity until their kill
/// time, and no successful interval may overlap its resource's downtime.
std::string validate_execution(const Workload& workload,
                               const std::vector<ExecutedTask>& executed,
                               const std::vector<ExecutedTask>& killed,
                               const std::vector<DownInterval>& downtime);

}  // namespace mrcp::sim
