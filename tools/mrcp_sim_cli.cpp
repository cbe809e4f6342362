// mrcp_sim — command-line driver for the whole library.
//
// Modes (--mode):
//   generate  Generate a workload (synthetic Table 3 or facebook Table 4)
//             and write it to --workload-out in the trace format.
//   simulate  Load (or generate) a workload and run it through a resource
//             manager (--rm mrcp|minedf|edf), printing O/N/T/P and
//             optionally exporting the executed schedule as CSV.
//   inspect   Load a workload and print its summary statistics.
//
// Examples:
//   mrcp_sim --mode generate --generator synthetic --jobs 100
//            --workload-out /tmp/w.workload
//   mrcp_sim --mode simulate --workload /tmp/w.workload --rm mrcp
//            --trace-out /tmp/schedule.csv
//   mrcp_sim --mode simulate --generator facebook --jobs 200
//            --lambda 0.0003 --rm minedf
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <system_error>
#include <vector>

#include "common/flags.h"
#include "common/stats.h"
#include "mapreduce/facebook_workload.h"
#include "mapreduce/synthetic_workload.h"
#include "mapreduce/workload_io.h"
#include "sim/cluster_sim.h"
#include "sim/experiment.h"
#include "sim/trace_export.h"

using namespace mrcp;

namespace {

/// Reads integer flag --`name` as a count. A negative value is reported
/// as an error naming the flag (a plain cast would wrap it to ~2^64).
bool read_count(const Flags& flags, const char* name, std::uint64_t& out) {
  const std::int64_t value = flags.get_int(name);
  if (value < 0) {
    std::fprintf(stderr, "error: --%s must be >= 0, got %lld\n", name,
                 static_cast<long long>(value));
    return false;
  }
  out = static_cast<std::uint64_t>(value);
  return true;
}

/// Checks integer flag --`name` >= `min`; a smaller value is reported
/// as an error naming the flag.
bool check_int_at_least(const Flags& flags, const char* name,
                        std::int64_t min) {
  const std::int64_t value = flags.get_int(name);
  if (value >= min) return true;
  std::fprintf(stderr, "error: --%s must be >= %lld, got %lld\n", name,
               static_cast<long long>(min), static_cast<long long>(value));
  return false;
}

/// Checks real flag --`name` against `ok`; a value it rejects (NaN
/// included) is reported as an error naming the flag and what it
/// accepts.
template <typename Pred>
bool check_real(const Flags& flags, const char* name, const char* accepts,
                Pred ok) {
  const double value = flags.get_double(name);
  if (ok(value)) return true;
  std::fprintf(stderr, "error: --%s must be %s, got %g\n", name, accepts,
               value);
  return false;
}

bool is_probability(double v) { return v >= 0.0 && v <= 1.0; }
bool is_finite_non_negative(double v) { return std::isfinite(v) && v >= 0.0; }
bool is_finite_positive(double v) { return std::isfinite(v) && v > 0.0; }

/// The generator knobs the generators would abort on, or (a negative
/// --lambda) silently replace by the default.
bool check_generator_flags(const Flags& flags, bool synthetic) {
  if (!check_int_at_least(flags, "jobs", 1) ||
      !check_real(flags, "lambda", ">= 0 (0 = generator default)",
                  [](double v) { return v >= 0.0; })) {
    return false;
  }
  if (!synthetic) return true;
  for (const char* name :
       {"emax", "resources", "map-slots", "reduce-slots", "num-racks"}) {
    if (!check_int_at_least(flags, name, 1)) return false;
  }
  if (!check_real(flags, "p", "in [0, 1]", is_probability)) return false;
  // Start offsets are drawn from [1, smax] only when some job may start
  // in the future.
  const bool offsets_drawn = flags.get_double("p") > 0.0;
  return check_int_at_least(flags, "smax", offsets_drawn ? 1 : 0) &&
         check_real(flags, "dm", ">= 1",
                    [](double v) { return v >= 1.0; }) &&
         check_real(flags, "locality-prob", "in [0, 1]", is_probability) &&
         check_real(flags, "affinity-prob", "in [0, 1]", is_probability);
}

/// The fault knobs FaultConfig::validate() rejects, and the solver
/// budget (a negative or NaN budget would put every invocation on the
/// fallback), each reported by flag name. A repair time or straggler
/// factor is only read when the fault it belongs to is on.
bool check_simulate_flags(const Flags& flags) {
  if (!check_real(flags, "solver-budget-s", "finite and >= 0",
                  is_finite_non_negative) ||
      !check_real(flags, "mtbf", "finite and >= 0 (0 = no failures)",
                  is_finite_non_negative) ||
      !check_real(flags, "rack-mtbf", "finite and >= 0 (0 = no bursts)",
                  is_finite_non_negative) ||
      !check_real(flags, "straggler-prob", "in [0, 1]", is_probability)) {
    return false;
  }
  if (flags.get_double("mtbf") > 0.0 &&
      !check_real(flags, "mttr", "finite and > 0 when --mtbf > 0",
                  is_finite_positive)) {
    return false;
  }
  if (flags.get_double("rack-mtbf") > 0.0 &&
      !check_real(flags, "rack-mttr", "finite and > 0 when --rack-mtbf > 0",
                  is_finite_positive)) {
    return false;
  }
  return flags.get_double("straggler-prob") == 0.0 ||
         check_real(flags, "straggler-factor",
                    "finite and >= 1 when --straggler-prob > 0",
                    [](double v) { return std::isfinite(v) && v >= 1.0; });
}

/// Parses --speeds ("500,1000,2000") into positive permille values; an
/// item that is not a positive integer is reported as an error.
bool parse_speeds(const std::string& speeds, std::vector<int>& out) {
  std::size_t pos = 0;
  while (pos < speeds.size()) {
    std::size_t next = speeds.find(',', pos);
    if (next == std::string::npos) next = speeds.size();
    const std::string item = speeds.substr(pos, next - pos);
    const char* end = item.data() + item.size();
    int value = 0;
    const auto [ptr, ec] = std::from_chars(item.data(), end, value);
    if (ec != std::errc{} || ptr != end || value <= 0) {
      std::fprintf(stderr,
                   "error: --speeds item '%s' is not a positive integer "
                   "(permille)\n",
                   item.c_str());
      return false;
    }
    out.push_back(value);
    pos = next + 1;
  }
  return true;
}

Workload build_workload(const Flags& flags, bool& ok) {
  ok = true;
  const std::string& path = flags.get_string("workload");
  if (!path.empty()) {
    std::string error;
    Workload w = load_workload_file(path, &error);
    if (!error.empty()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      ok = false;
    }
    return w;
  }
  const std::string& gen = flags.get_string("generator");
  if (!check_generator_flags(flags, gen == "synthetic")) {
    ok = false;
    return Workload{};
  }
  const auto num_jobs = static_cast<std::uint64_t>(flags.get_int("jobs"));
  if (gen == "synthetic") {
    SyntheticWorkloadConfig c;
    c.num_jobs = static_cast<std::size_t>(num_jobs);
    c.arrival_rate = flags.get_double("lambda") > 0 ? flags.get_double("lambda")
                                                    : 0.01;
    c.e_max = flags.get_int("emax");
    c.start_prob = flags.get_double("p");
    c.s_max = flags.get_int("smax");
    c.deadline_multiplier_ul = flags.get_double("dm");
    c.num_resources = static_cast<int>(flags.get_int("resources"));
    c.map_capacity = static_cast<int>(flags.get_int("map-slots"));
    c.reduce_capacity = static_cast<int>(flags.get_int("reduce-slots"));
    c.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    // Heterogeneity knobs (docs/heterogeneous.md). Defaults leave the
    // generator byte-identical to the homogeneous paper setup.
    c.num_racks = static_cast<int>(flags.get_int("num-racks"));
    c.locality_prob = flags.get_double("locality-prob");
    c.affinity_prob = flags.get_double("affinity-prob");
    if (!parse_speeds(flags.get_string("speeds"), c.speed_choices)) {
      ok = false;
      return Workload{};
    }
    return generate_synthetic_workload(c);
  }
  if (gen == "facebook") {
    FacebookWorkloadConfig c;
    c.num_jobs = static_cast<std::size_t>(num_jobs);
    c.arrival_rate = flags.get_double("lambda") > 0 ? flags.get_double("lambda")
                                                    : 0.0003;
    c.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    return generate_facebook_workload(c);
  }
  std::fprintf(stderr, "error: unknown --generator '%s' (synthetic|facebook)\n",
               gen.c_str());
  ok = false;
  return Workload{};
}

int run_generate(const Flags& flags) {
  bool ok = false;
  const Workload w = build_workload(flags, ok);
  if (!ok) return 1;
  const std::string& out = flags.get_string("workload-out");
  if (out.empty()) {
    std::printf("%s", workload_to_string(w).c_str());
    return 0;
  }
  if (!save_workload_file(w, out)) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu jobs to %s\n", w.size(), out.c_str());
  return 0;
}

int run_inspect(const Flags& flags) {
  bool ok = false;
  const Workload w = build_workload(flags, ok);
  if (!ok) return 1;
  const auto s = w.summarize();
  std::printf("%s\n", w.to_string().c_str());
  std::printf("  mean map tasks/job:      %.2f\n", s.mean_map_tasks);
  std::printf("  mean reduce tasks/job:   %.2f\n", s.mean_reduce_tasks);
  std::printf("  mean map exec (s):       %.2f\n", s.mean_map_exec_seconds);
  std::printf("  mean reduce exec (s):    %.2f\n", s.mean_reduce_exec_seconds);
  std::printf("  mean inter-arrival (s):  %.2f\n", s.mean_interarrival_seconds);
  std::printf("  mean laxity (s):         %.2f\n", s.mean_laxity_seconds);
  std::printf("  fraction AR requests:    %.3f\n", s.fraction_future_start);
  std::printf("  offered utilization:     %.3f\n", s.offered_utilization);
  return 0;
}

int run_simulate(const Flags& flags) {
  if (!check_real(flags, "warmup", "in [0, 1)",
                  [](double v) { return v >= 0.0 && v < 1.0; }) ||
      !check_simulate_flags(flags)) {
    return 1;
  }
  bool ok = false;
  const Workload w = build_workload(flags, ok);
  if (!ok) return 1;

  sim::SimOptions options;
  options.faults.mtbf_s = flags.get_double("mtbf");
  options.faults.mttr_s = flags.get_double("mttr");
  options.faults.straggler_prob = flags.get_double("straggler-prob");
  options.faults.straggler_factor = flags.get_double("straggler-factor");
  options.faults.rack_mtbf_s = flags.get_double("rack-mtbf");
  options.faults.rack_mttr_s = flags.get_double("rack-mttr");
  options.faults.seed = static_cast<std::uint64_t>(flags.get_int("fault-seed"));
  {
    const std::string err = options.faults.validate();
    if (!err.empty()) {
      std::fprintf(stderr, "error: fault config: %s\n", err.c_str());
      return 1;
    }
  }

  options.durability.journal_prefix = flags.get_string("journal");
  if (!read_count(flags, "snapshot-every", options.durability.snapshot_every)) {
    return 1;
  }
  options.durability.restore = flags.get_bool("restore");
  if (options.durability.restore && !options.durability.enabled()) {
    std::fprintf(stderr, "error: --restore requires --journal <prefix>\n");
    return 1;
  }

  const std::string& rm = flags.get_string("rm");
  sim::SimMetrics metrics;
  if (rm == "mrcp") {
    MrcpConfig config;
    config.solve.time_limit_s = flags.get_double("solver-budget-s");
    config.use_separation = !flags.get_bool("no-separation");
    config.defer_future_jobs = !flags.get_bool("no-deferral");
    if (flags.get_bool("incremental")) {
      config.replan_scope = ReplanScope::kDirtyOnly;
    }
    metrics = sim::simulate_mrcp(w, config, options);
  } else if (rm == "minedf" || rm == "edf") {
    baseline::MinEdfConfig config;
    if (rm == "edf") config.allocation = baseline::AllocationPolicy::kMaximal;
    metrics = sim::simulate_minedf(w, config, options);
  } else {
    std::fprintf(stderr, "error: unknown --rm '%s' (mrcp|minedf|edf)\n",
                 rm.c_str());
    return 1;
  }

  const sim::RunMetrics run =
      sim::summarize_run(metrics, flags.get_double("warmup"));
  std::printf("scheduler: %s over %zu jobs\n", rm.c_str(), w.size());
  std::printf("  O = %.6f s/job\n", run.O_seconds);
  const bool mrcp_stats = flags.get_bool("stats") && rm == "mrcp";
  if (mrcp_stats) {
    // The distribution behind O: every reschedule() call's wall clock.
    std::vector<double> call_ms;
    call_ms.reserve(metrics.invocations.size());
    for (const InvocationRecord& rec : metrics.invocations) {
      call_ms.push_back(rec.wall_seconds * 1e3);
    }
    std::printf("  reschedule p50 / p99 / max = %.3f / %.3f / %.3f ms\n",
                percentile_nearest_rank(call_ms, 0.50),
                percentile_nearest_rank(call_ms, 0.99),
                percentile_nearest_rank(call_ms, 1.0));
  }
  std::printf("  T = %.1f s\n", run.T_seconds);
  std::printf("  N = %.0f late\n", run.N_late);
  std::printf("  P = %.2f %%\n", run.P_percent);
  if (flags.get_bool("stats")) {
    std::printf("  execution validation wall = %.3f s\n",
                metrics.validate_wall_seconds);
  }
  if (options.faults.enabled()) {
    const sim::FailureMetrics& f = metrics.failure;
    std::printf("faults:\n");
    std::printf("  failures = %lld, repairs = %lld\n",
                static_cast<long long>(f.resource_failures),
                static_cast<long long>(f.resource_repairs));
    if (options.faults.rack_failures_enabled()) {
      std::printf("  rack bursts = %lld\n",
                  static_cast<long long>(f.rack_bursts));
    }
    std::printf("  tasks killed = %lld, wasted work = %.1f s\n",
                static_cast<long long>(f.tasks_killed), f.wasted_seconds());
    std::printf("  stragglers = %lld\n",
                static_cast<long long>(f.straggler_tasks));
    std::printf("  late jobs failure-affected = %lld\n",
                static_cast<long long>(f.jobs_late_failure_affected));
  }

  if (mrcp_stats) {
    const DegradationCounts& d = metrics.degradation;
    std::printf("solver:\n");
    std::printf("  invocations = %llu, solve attempts = %llu\n",
                static_cast<unsigned long long>(metrics.rm_invocations),
                static_cast<unsigned long long>(d.solve_attempts));
    std::printf("  solve wall = %.3f s, max live tasks = %llu\n",
                d.solve_wall_seconds,
                static_cast<unsigned long long>(metrics.max_live_tasks));
    // Solves whose wall clock reached the budget: where the budget cut a
    // search, the plan depends on host speed (docs/simulation.md).
    const double budget = flags.get_double("solver-budget-s");
    const auto budget_bound = std::count_if(
        metrics.invocations.begin(), metrics.invocations.end(),
        [&](const InvocationRecord& rec) {
          return rec.attempts > 0 && rec.solve_wall_seconds >= budget;
        });
    std::printf("  budget-bound solves = %lld\n",
                static_cast<long long>(budget_bound));
    std::int64_t repeats = 0;
    double collect_s = 0.0;
    double build_s = 0.0;
    double matchmake_s = 0.0;
    double publish_s = 0.0;
    double portfolio_s = 0.0;
    double improvement_s = 0.0;
    double lns_s = 0.0;
    for (const InvocationRecord& rec : metrics.invocations) {
      repeats += rec.repeat_descents_skipped;
      collect_s += rec.collect_wall_seconds;
      build_s += rec.build_wall_seconds;
      matchmake_s += rec.matchmake_wall_seconds;
      publish_s += rec.publish_wall_seconds;
      portfolio_s += rec.portfolio_seconds;
      improvement_s += rec.improvement_seconds;
      lns_s += rec.lns_seconds;
    }
    std::printf("  portfolio / B&B / LNS wall = %.3f / %.3f / %.3f s\n",
                portfolio_s, improvement_s, lns_s);
    std::printf("  repeat descents not run = %lld\n",
                static_cast<long long>(repeats));
    std::printf("  collect wall = %.3f s, build wall = %.3f s\n", collect_s,
                build_s);
    std::printf("  matchmake wall = %.3f s, publish wall = %.3f s\n",
                matchmake_s, publish_s);
    std::printf("degradation:\n");
    std::printf("  primary = %llu, fallback = %llu\n",
                static_cast<unsigned long long>(d.primary),
                static_cast<unsigned long long>(d.fallback));
    std::printf("  parked = %llu, skipped = %llu, idle = %llu\n",
                static_cast<unsigned long long>(d.parked),
                static_cast<unsigned long long>(d.skipped),
                static_cast<unsigned long long>(d.idle));
  }

  const std::string& trace_out = flags.get_string("trace-out");
  if (!trace_out.empty()) {
    if (!sim::write_text_file(trace_out,
                              sim::execution_to_csv(metrics.executed, w))) {
      std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("wrote executed schedule to %s\n", trace_out.c_str());
  }
  const std::string& downtime_out = flags.get_string("downtime-out");
  if (!downtime_out.empty()) {
    if (!sim::write_text_file(downtime_out,
                              sim::downtime_to_csv(metrics.downtime))) {
      std::fprintf(stderr, "error: cannot write %s\n", downtime_out.c_str());
      return 1;
    }
    std::printf("wrote downtime intervals to %s\n", downtime_out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags("mrcp_sim — workload generation, inspection and simulation");
  flags.add_string("mode", "simulate", "generate | simulate | inspect")
      .add_string("workload", "", "load workload from this trace file")
      .add_string("workload-out", "", "generate: write workload here")
      .add_string("generator", "synthetic", "synthetic | facebook")
      .add_string("rm", "mrcp", "resource manager: mrcp | minedf | edf")
      .add_int("jobs", 100, "generated jobs")
      .add_double("lambda", 0.0, "arrival rate (0 = generator default)")
      .add_int("emax", 50, "synthetic: map exec upper bound (s)")
      .add_double("p", 0.5, "synthetic: AR probability")
      .add_int("smax", 50000, "synthetic: max start offset (s)")
      .add_double("dm", 5.0, "synthetic: deadline multiplier bound")
      .add_int("resources", 50, "synthetic: number of resources")
      .add_int("map-slots", 2, "synthetic: map slots per resource")
      .add_int("reduce-slots", 2, "synthetic: reduce slots per resource")
      .add_int("seed", 1, "generator seed")
      .add_double("warmup", 0.1, "warmup fraction for metrics")
      .add_double("solver-budget-s", 0.1, "mrcp: CP budget per invocation")
      .add_bool("no-separation", false, "mrcp: disable §V.D separation")
      .add_bool("no-deferral", false, "mrcp: disable §V.E deferral")
      .add_bool("incremental", false,
                "mrcp: dirty-set incremental rescheduling (frozen boundary "
                "— docs/incremental.md)")
      .add_bool("stats", false,
                "simulate: print validation wall and solver/degradation stats")
      .add_double("mtbf", 0.0, "mean time between failures per resource (s, "
                               "0 = no failures)")
      .add_double("mttr", 60.0, "mean time to repair (s)")
      .add_double("straggler-prob", 0.0, "per-task straggler probability")
      .add_double("straggler-factor", 1.0, "straggler exec-time multiplier")
      .add_double("rack-mtbf", 0.0, "mean time between correlated rack "
                                    "bursts per rack (s, 0 = none)")
      .add_double("rack-mttr", 60.0,
                  "mean member repair after a rack burst (s)")
      .add_int("fault-seed", 1, "fault-injection seed")
      .add_string("speeds", "",
                  "synthetic: comma-separated machine speed choices "
                  "(permille of baseline; empty = homogeneous 1000)")
      .add_int("num-racks", 1, "synthetic: racks to stripe machines across")
      .add_double("locality-prob", 0.0,
                  "synthetic: per-task data-locality candidate-set "
                  "probability")
      .add_double("affinity-prob", 0.0,
                  "synthetic: per-job reduce anti-affinity probability")
      .add_string("trace-out", "", "simulate: write executed schedule CSV")
      .add_string("downtime-out", "", "simulate: write outage intervals CSV")
      .add_string("journal", "",
                  "simulate: write-ahead journal/snapshot file prefix "
                  "(docs/crash_recovery.md; empty = durability off)")
      .add_int("snapshot-every", 0,
               "simulate: snapshot full scheduler state every N journal "
               "records (0 = journal only)")
      .add_bool("restore", false,
                "simulate: resume from --journal state instead of starting "
                "fresh");
  if (!flags.parse(argc, argv)) return flags.ok() ? 0 : 1;

  const std::string& mode = flags.get_string("mode");
  if (mode == "generate") return run_generate(flags);
  if (mode == "inspect") return run_inspect(flags);
  if (mode == "simulate") return run_simulate(flags);
  std::fprintf(stderr, "error: unknown --mode '%s'\n", mode.c_str());
  return 1;
}
