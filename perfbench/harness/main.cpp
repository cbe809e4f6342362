// mrcp_perfbench — the repository's benchmark harness (see ../README.md).
//
//   mrcp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <spans.jsonl>]
//
// A run measures a few workload instances generated from the seed, in
// rounds: every round measures each instance once. The number of rounds
// follows from --seconds and the workload's nominal round length, never
// from the host's speed, so every run does the same work. One measurement of an instance sets it up
// (generation, straggler transform and scheduler construction, timed five
// times), simulates it as users run it — one simulate_* call with
// execution validation on — and replays it: the simulation's event
// stream drives a fresh scheduler whose every call is timed (replay.h).
// Every measurement runs in a forked child process with a deadline
// (isolate.h). The rounds repeat the same work spread over the whole run,
// so an instance's simulation time is its fastest over the rounds and
// each scheduler call's latency its fastest over the rounds: the host
// slows a run down for seconds at a time, and the fastest of a few spread
// repeats is far less affected than any one. The first round's exact
// counts (solver decisions, invocations, late jobs) form the per-layer
// counts.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. The traced run also times the execution validator,
// adds a traced replay to every MRCP-RM instance, records a span around
// every call it makes into the library and writes the spans to
// --trace-out.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/minedf_wc.h"
#include "core/mrcp_rm.h"
#include "harness/isolate.h"
#include "harness/replay.h"
#include "harness/trace.h"
#include "mapreduce/facebook_workload.h"
#include "mapreduce/synthetic_workload.h"
#include "sim/cluster_sim.h"
#include "sim/fault_injector.h"

namespace perfbench {
namespace {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Every MRCP-RM solve runs in the calling thread: one instance at a time,
/// one solver thread, so no pool scheduling enters the timings.
constexpr int kSolverThreads = 1;
/// Warm-up share trimmed from P and T, as mrcp-sim reports them.
constexpr double kWarmupFraction = 0.1;
/// Set-ups timed per measurement.
constexpr int kSetupReps = 5;
/// A measurement runs in a child process that is killed after this long —
/// several times what any instance needs; a simulation that never ends
/// would otherwise stall the run.
constexpr double kInstanceTimeoutS = 60.0;

/// Instance i of seed s is generated with seed s * kSeedStride + i.
constexpr std::uint64_t kSeedStride = 1000;

struct WorkloadDef {
  const char* name;
  bool minedf;  ///< MinEDF-WC baseline instead of MRCP-RM
  bool hetero;  ///< synthetic heterogeneous cluster with faults, incremental
  std::size_t jobs;  ///< per instance
  /// Instances every run measures; the exact counts are totals over them.
  std::uint64_t instances;
  /// Length of a round on an unloaded 4-vCPU host; a run measures
  /// --seconds / round_s rounds, at least one.
  double round_s;
};

constexpr WorkloadDef kWorkloads[] = {
    {"fb-fig2", false, false, 1000, 3, 12.5},
    {"hetero-faults-incremental", false, true, 600, 2, 12.0},
    {"fb-fig2-minedf", true, false, 1000, 4, 9.0},
};

mrcp::Workload generate_workload(const WorkloadDef& def, std::uint64_t seed) {
  if (def.hetero) {
    // Table 3 generator with mrcp-sim's defaults plus a three-speed
    // cluster in five racks and placement constraints.
    mrcp::SyntheticWorkloadConfig c;
    c.num_jobs = def.jobs;
    c.speed_choices = {500, 1000, 2000};
    c.num_racks = 5;
    c.locality_prob = 0.3;
    c.affinity_prob = 0.2;
    c.seed = seed;
    return mrcp::generate_synthetic_workload(c);
  }
  // The paper's Fig. 2 point: Facebook Table 4 mix on 64 x (1,1) slots.
  mrcp::FacebookWorkloadConfig c;
  c.num_jobs = def.jobs;
  c.arrival_rate = 3e-4;
  c.seed = seed;
  return mrcp::generate_facebook_workload(c);
}

mrcp::sim::SimOptions sim_options(const WorkloadDef& def, std::uint64_t seed) {
  mrcp::sim::SimOptions options;
  if (def.hetero) {
    options.faults.mtbf_s = 20000;
    options.faults.rack_mtbf_s = 100000;
    options.faults.straggler_prob = 0.05;
    options.faults.straggler_factor = 3;
    options.faults.seed = seed;
  }
  return options;
}

mrcp::MrcpConfig mrcp_config(const WorkloadDef& def) {
  mrcp::MrcpConfig config;
  config.solve.num_threads = kSolverThreads;
  if (def.hetero) config.replan_scope = mrcp::ReplanScope::kDirtyOnly;
  return config;
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile rank: p = 0.99 over n samples leaves
/// n - rank samples above it (10 for n = 1000).
std::size_t percentile_rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));
  return std::max<std::size_t>(rank, 1);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[percentile_rank(v.size(), p) - 1];
}

// ---------------------------------------------------------------------------
// Measurements
// ---------------------------------------------------------------------------

/// Outputs of one simulation; they depend only on its inputs.
struct SimCounts {
  std::uint64_t invocations = 0;
  std::uint64_t solve_attempts = 0;
  std::uint64_t degraded = 0;
  std::size_t jobs = 0;
  std::size_t unfinished = 0;
  std::size_t trimmed_jobs = 0;  ///< after the warm-up trim
  std::int64_t late = 0;         ///< of trimmed_jobs
  double turnaround_s = 0.0;     ///< mean over trimmed_jobs
  std::uint64_t tasks_killed = 0;
  std::uint64_t resource_failures = 0;
};

/// Outputs of one replay; a traced replay must repeat them exactly.
struct ReplayCounts {
  std::size_t reschedule_calls = 0;
  std::uint64_t invocations = 0;
  std::uint64_t solve_attempts = 0;
  std::int64_t decisions = 0;
  std::int64_t fails = 0;
  bool operator==(const ReplayCounts&) const = default;
};

struct Replay {
  bool traced = false;
  std::vector<double> reschedule_ms;  ///< every reschedule call, call order
  double reschedule_s = 0.0;
  double submit_s = 0.0;
  double fault_api_s = 0.0;
  double wall_s = 0.0;
  ReplayCounts counts;
  // MRCP-RM only.
  mrcp::MrcpStats stats;
  mrcp::DegradationCounts degradation;
  std::vector<mrcp::InvocationRecord> ledger;
};

/// Timings of one simulation.
struct SimTiming {
  double wall_s = HUGE_VAL;
  double sched_s = HUGE_VAL;  ///< scheduler time inside the simulation
  double o_ms = HUGE_VAL;
};

struct Instance {
  std::uint64_t seed = 0;
  bool timed_out = false;  ///< a measurement was killed at its deadline
  mrcp::Workload workload;  ///< as generated
  /// With stragglers: the slowed copy the scheduler and validator see.
  std::optional<mrcp::Workload> straggled;
  const mrcp::Workload& scheduled() const {
    return straggled ? *straggled : workload;
  }
  /// From the instance's simulation: the outages the replay feeds the
  /// RM and, for MinEDF-WC, the launches the replay must reproduce.
  std::vector<mrcp::sim::DownInterval> downtime;
  std::vector<mrcp::sim::ExecutedTask> executed;
  /// The first round's; in a measurement's child, its own simulation's.
  std::optional<SimCounts> sim;
  std::optional<Replay> first_replay;  ///< the traced one when tracing MRCP-RM
  /// The latest measurement's simulation timings and untraced scheduler
  /// call latencies (ms, call order).
  SimTiming timing;
  std::vector<double> calls_ms;
  /// Fastest over the rounds: simulation timings, and each call's latency.
  SimTiming fastest;
  std::vector<double> fastest_calls_ms;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string samples;  ///< what the value was computed from
};

class Bench {
 public:
  Bench(const WorkloadDef& def, std::uint64_t seed, double seconds, bool trace)
      : def_(def), seed_(seed), seconds_(seconds), trace_(trace),
        config_(mrcp_config(def)) {}

  /// Measures every instance once per round, each measurement in a child
  /// process (isolate.h). False when a correctness check failed (see
  /// errors()).
  bool run() {
    instances_.resize(def_.instances);
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      instances_[i].seed = seed_ * kSeedStride + i;
    }
    rounds_ = std::max(1, static_cast<int>(std::lround(seconds_ / def_.round_s)));
    for (int round = 0; round < rounds_; ++round) {
      for (Instance& inst : instances_) {
        if (!inst.timed_out) measure(inst, /*counted=*/round == 0);
      }
      if (round == 0) peak_rss_mb_ = children_peak_rss_mb();
    }
    std::erase_if(instances_, [](const Instance& inst) {
      return inst.timed_out || !inst.sim || !inst.first_replay;
    });
    return errors_.empty();
  }

  const std::vector<std::string>& errors() const { return errors_; }
  const Tracer& tracer() const { return tracer_; }
  std::size_t jobs_attempted() const { return jobs_attempted_; }
  std::size_t jobs_failed() const { return jobs_failed_; }

  std::vector<Metric> end_to_end() const;
  /// One field of every instance's fastest simulation timings.
  std::vector<double> fastest(double SimTiming::*field) const;
  std::vector<Metric> per_layer() const;
  std::string provenance() const;

 private:
  void fail(const Instance& inst, const std::string& what) {
    errors_.push_back("instance seed " + std::to_string(inst.seed) + ": " +
                      what);
  }

  /// Measure one instance in a child process and fold the result in;
  /// `counted` (the first round) also ships the exact counts.
  void measure(Instance& inst, bool counted) {
    const IsolatedResult r = run_isolated(
        [&] {
          const Tails mark = tails();
          cycle(inst);
          return ship(mark, inst, counted);
        },
        kInstanceTimeoutS);
    if (r.status == IsolatedResult::Status::kTimedOut) {
      // A job that never finishes is a failed operation, not a wrong
      // output: the run goes on without the instance and reports its
      // jobs in `failed`.
      std::fprintf(stderr,
                   "instance seed %llu did not finish within %.0f s; its "
                   "%zu jobs count as failed\n",
                   static_cast<unsigned long long>(inst.seed),
                   kInstanceTimeoutS, def_.jobs);
      jobs_attempted_ += def_.jobs;
      jobs_failed_ += def_.jobs;
      inst.timed_out = true;
      ++unfinished_instances_;
    } else if (r.status == IsolatedResult::Status::kFailed) {
      fail(inst, "measurement failed: " + r.detail);
    } else if (!absorb(r.bytes, inst, counted)) {
      fail(inst, "malformed measurement from the child process");
    } else {
      keep_fastest(inst);
    }
  }

  /// Fold the latest measurement into the instance's fastest timings.
  void keep_fastest(Instance& inst) {
    inst.fastest.wall_s = std::min(inst.fastest.wall_s, inst.timing.wall_s);
    inst.fastest.sched_s = std::min(inst.fastest.sched_s, inst.timing.sched_s);
    inst.fastest.o_ms = std::min(inst.fastest.o_ms, inst.timing.o_ms);
    if (inst.fastest_calls_ms.empty()) {
      inst.fastest_calls_ms = std::move(inst.calls_ms);
    } else if (inst.calls_ms.size() != inst.fastest_calls_ms.size()) {
      fail(inst, "replays in different rounds made different numbers of "
                 "scheduler calls");
    } else {
      for (std::size_t c = 0; c < inst.calls_ms.size(); ++c) {
        inst.fastest_calls_ms[c] =
            std::min(inst.fastest_calls_ms[c], inst.calls_ms[c]);
      }
    }
    inst.calls_ms.clear();
  }

  // ---- Shipping one instance's results from the child to the parent ----

  /// Sizes of everything a cycle appends to, taken before the cycle.
  struct Tails {
    std::vector<std::size_t> samples;
    std::size_t replays = 0;
    std::size_t errors = 0;
    std::size_t spans = 0;
    std::size_t jobs_attempted = 0;
    std::size_t jobs_failed = 0;
  };

  std::vector<std::vector<double>*> sample_series() {
    return {&setup_s_, &generate_s_, &validate_s_, &driver_self_s_,
            &overhead_pct_};
  }

  Tails tails() {
    Tails t;
    for (const std::vector<double>* v : sample_series()) {
      t.samples.push_back(v->size());
    }
    t.replays = replays_.size();
    t.errors = errors_.size();
    t.spans = tracer_.spans().size();
    t.jobs_attempted = jobs_attempted_;
    t.jobs_failed = jobs_failed_;
    return t;
  }

  static void write_replay(ByteWriter& w, const Replay& r) {
    w.pod(r.traced);
    w.vec(r.reschedule_ms);
    w.pod(r.reschedule_s);
    w.pod(r.submit_s);
    w.pod(r.fault_api_s);
    w.pod(r.wall_s);
    w.pod(r.counts);
    w.pod(r.stats);
    w.pod(r.degradation);
    w.vec(r.ledger);
  }

  static Replay read_replay(ByteReader& in) {
    Replay r;
    r.traced = in.pod<bool>();
    r.reschedule_ms = in.vec<double>();
    r.reschedule_s = in.pod<double>();
    r.submit_s = in.pod<double>();
    r.fault_api_s = in.pod<double>();
    r.wall_s = in.pod<double>();
    r.counts = in.pod<ReplayCounts>();
    r.stats = in.pod<mrcp::MrcpStats>();
    r.degradation = in.pod<mrcp::DegradationCounts>();
    r.ledger = in.vec<mrcp::InvocationRecord>();
    return r;
  }

  /// Everything the cycle since `mark` appended and the instance's
  /// timings, plus its counts when it is counted.
  std::string ship(const Tails& mark, const Instance& inst, bool counted) {
    ByteWriter w;
    const auto series = sample_series();
    for (std::size_t k = 0; k < series.size(); ++k) {
      w.vec(std::vector<double>(series[k]->begin() + mark.samples[k],
                                series[k]->end()));
    }
    w.pod(replays_.size() - mark.replays);
    for (std::size_t k = mark.replays; k < replays_.size(); ++k) {
      write_replay(w, replays_[k]);
    }
    w.pod(errors_.size() - mark.errors);
    for (std::size_t k = mark.errors; k < errors_.size(); ++k) {
      w.str(errors_[k]);
    }
    w.vec(std::vector<Span>(tracer_.spans().begin() + mark.spans,
                            tracer_.spans().end()));
    w.pod(tracer_.run());
    w.pod(jobs_attempted_ - mark.jobs_attempted);
    w.pod(jobs_failed_ - mark.jobs_failed);
    w.pod(inst.timing);
    w.vec(inst.calls_ms);
    w.pod(counted && inst.sim && inst.first_replay);
    if (counted && inst.sim && inst.first_replay) {
      w.pod(*inst.sim);
      write_replay(w, *inst.first_replay);
    }
    return w.take();
  }

  /// Append what ship() sent; false when the bytes do not parse.
  bool absorb(const std::string& bytes, Instance& inst, bool counted) {
    ByteReader in(bytes);
    for (std::vector<double>* v : sample_series()) {
      const std::vector<double> tail = in.vec<double>();
      v->insert(v->end(), tail.begin(), tail.end());
    }
    const auto replays = in.pod<std::size_t>();
    for (std::size_t k = 0; k < replays && in.ok_so_far(); ++k) {
      replays_.push_back(read_replay(in));
    }
    const auto errors = in.pod<std::size_t>();
    for (std::size_t k = 0; k < errors && in.ok_so_far(); ++k) {
      errors_.push_back(in.str());
    }
    const std::vector<Span> spans = in.vec<Span>();
    tracer_.adopt(spans, in.pod<int>());
    jobs_attempted_ += in.pod<std::size_t>();
    jobs_failed_ += in.pod<std::size_t>();
    inst.timing = in.pod<SimTiming>();
    inst.calls_ms = in.vec<double>();
    if (in.pod<bool>() && counted) {
      inst.sim = in.pod<SimCounts>();
      inst.first_replay = read_replay(in);
    }
    return in.ok();
  }

  /// Set up, simulate and replay one instance.
  void cycle(Instance& inst) {
    for (int r = 0; r < kSetupReps; ++r) setup(inst);
    simulate(inst);
    if (!trace_ || def_.minedf) {
      inst.calls_ms = std::move(replay(inst, /*traced=*/false).reschedule_ms);
      return;
    }
    // An instance's second replay runs on warm caches, so the order
    // alternates between instances to keep that out of the overhead.
    const bool traced_first = inst.seed % 2 == 1;
    const Replay& first = replay(inst, traced_first);
    const double first_s = first.wall_s;
    if (!traced_first) inst.calls_ms = first.reschedule_ms;
    const Replay& second = replay(inst, !traced_first);
    if (traced_first) inst.calls_ms = second.reschedule_ms;
    const double traced = traced_first ? first_s : second.wall_s;
    const double untraced = traced_first ? second.wall_s : first_s;
    overhead_pct_.push_back(100.0 * (traced - untraced) / untraced);
  }

  /// Workload generation + straggler transform + scheduler construction.
  void setup(Instance& inst) {
    tracer_.new_run();
    ScopedSpan whole(span_sink(), "setup");
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan s(span_sink(), "mapreduce.generate");
      inst.workload = generate_workload(def_, inst.seed);
    }
    generate_s_.push_back(seconds_since(t0));
    const mrcp::sim::FaultConfig faults = sim_options(def_, inst.seed).faults;
    inst.straggled.reset();
    if (faults.stragglers_enabled()) {
      ScopedSpan s(span_sink(), "sim.apply_stragglers");
      inst.straggled = inst.workload;
      mrcp::sim::apply_stragglers(*inst.straggled, faults);
    }
    if (def_.minedf) {
      ScopedSpan s(span_sink(), "baseline.construct");
      const mrcp::baseline::MinEdfWcScheduler sched(
          inst.scheduled().cluster,
          [](mrcp::JobId, int, mrcp::Time, mrcp::Time end) { return end; });
    } else {
      ScopedSpan s(span_sink(), "core.construct");
      const mrcp::MrcpRm rm(inst.scheduled().cluster, config_);
    }
    setup_s_.push_back(seconds_since(t0));
  }

  void simulate(Instance& inst) {
    tracer_.new_run();
    const mrcp::sim::SimOptions options = sim_options(def_, inst.seed);
    const Clock::time_point t0 = Clock::now();
    mrcp::sim::SimMetrics m;
    {
      ScopedSpan s(span_sink(), "sim.simulate");
      m = def_.minedf
              ? mrcp::sim::simulate_minedf(inst.workload, {}, options)
              : mrcp::sim::simulate_mrcp(inst.workload, config_, options);
    }
    const double wall = seconds_since(t0);
    inst.timing = {wall, m.total_sched_seconds,
                   m.sched_overhead_per_job() * 1e3};

    SimCounts c;
    c.invocations = m.rm_invocations;
    c.solve_attempts = m.degradation.solve_attempts;
    c.degraded = m.degradation.degraded();
    c.jobs = m.records.size();
    for (const mrcp::sim::JobRecord& r : m.records) {
      if (!r.completed()) ++c.unfinished;
    }
    if (c.unfinished == 0) {
      const mrcp::sim::SimMetrics::Aggregate agg = m.aggregate(kWarmupFraction);
      c.trimmed_jobs = agg.jobs;
      c.late = agg.late;
      c.turnaround_s = agg.mean_turnaround_s;
    }
    c.tasks_killed = m.failure.tasks_killed;
    c.resource_failures = m.failure.resource_failures;
    jobs_attempted_ += c.jobs;
    jobs_failed_ += c.unfinished;
    inst.sim = c;
    if (c.unfinished > 0) fail(inst, "jobs never finished");
    if (!def_.minedf && !def_.hetero && c.degraded > 0) {
      fail(inst, "degraded invocations on the fault-free workload");
    }

    if (trace_) {
      // The simulation validated its own trace already (a violation
      // aborts it); this separate call times the public validator on it.
      const Clock::time_point v0 = Clock::now();
      std::string err;
      {
        ScopedSpan s(span_sink(), "sim.validate_execution");
        err = mrcp::sim::validate_execution(inst.scheduled(), m.executed,
                                            m.killed, m.downtime);
      }
      const double validate = seconds_since(v0);
      validate_s_.push_back(validate);
      driver_self_s_.push_back(wall - m.total_sched_seconds - validate);
      if (!err.empty()) fail(inst, "execution validation: " + err);
    }
    inst.downtime = std::move(m.downtime);
    if (def_.minedf) inst.executed = std::move(m.executed);
  }

  Replay& replay(Instance& inst, bool traced) {
    tracer_.new_run();
    Tracer* tracer = traced ? &tracer_ : nullptr;
    ScopedSpan whole(tracer, "replay");
    Replay rep;
    rep.traced = traced;
    ReplayResult timing;
    if (def_.minedf) {
      MinEdfReplay r = replay_minedf(inst.scheduled(), {}, inst.executed);
      if (!r.matches_trace) fail(inst, "MinEDF-WC replay launched other tasks");
      rep.counts.invocations = r.dispatches;
      timing = std::move(r.timing);
    } else {
      mrcp::MrcpRm rm(inst.scheduled().cluster, config_);
      timing = replay_mrcp(inst.scheduled(), inst.downtime, rm, tracer);
      rep.stats = rm.stats();
      rep.degradation = rm.degradation_counts();
      rep.ledger = rm.ledger().records();
      rep.counts.invocations = rep.stats.invocations;
      rep.counts.solve_attempts = rep.stats.solve_attempts;
      rep.counts.decisions = rep.stats.solver_decisions;
      rep.counts.fails = rep.stats.solver_fails;
    }
    for (const TimedCall& c : timing.calls) {
      const double s = static_cast<double>(c.ns) * 1e-9;
      switch (c.kind) {
        case CallKind::kReschedule:
          rep.reschedule_ms.push_back(s * 1e3);
          rep.reschedule_s += s;
          break;
        case CallKind::kSubmit: rep.submit_s += s; break;
        case CallKind::kFaultApi: rep.fault_api_s += s; break;
      }
    }
    rep.counts.reschedule_calls = rep.reschedule_ms.size();
    rep.wall_s = timing.wall_seconds;

    // Every replay must reproduce its simulation's invocations, and every
    // further replay of the instance, in any round, traced or not, the
    // first one's calls.
    if (rep.counts.invocations != inst.sim->invocations) {
      fail(inst, "replay made " + std::to_string(rep.counts.invocations) +
                     " invocations, the simulation " +
                     std::to_string(inst.sim->invocations));
    }
    if (!def_.minedf && rep.counts.solve_attempts != inst.sim->solve_attempts) {
      fail(inst, "replay made " + std::to_string(rep.counts.solve_attempts) +
                     " solve attempts, the simulation " +
                     std::to_string(inst.sim->solve_attempts));
    }
    if (inst.first_replay && budget_hits(rep) == 0 &&
        budget_hits(*inst.first_replay) == 0 &&
        !(rep.counts == inst.first_replay->counts)) {
      // A solve cut by the clock searches differently on every run, so
      // only budget-free replays must repeat exactly.
      fail(inst, "replays of one instance differ");
    }
    // Per-layer metrics read the first traced replay when there is one.
    if (!inst.first_replay || (traced && !inst.first_replay->traced)) {
      inst.first_replay = rep;
    }
    replays_.push_back(std::move(rep));
    return replays_.back();
  }

  /// Invocations whose solve time reached the solver budget.
  std::size_t budget_hits(const Replay& r) const {
    const double budget = config_.solve.time_limit_s;
    return static_cast<std::size_t>(
        std::count_if(r.ledger.begin(), r.ledger.end(),
                      [&](const mrcp::InvocationRecord& rec) {
                        return rec.attempts > 0 &&
                               rec.solve_wall_seconds >= budget;
                      }));
  }

  Tracer* span_sink() { return trace_ ? &tracer_ : nullptr; }

  const WorkloadDef& def_;
  std::uint64_t seed_;
  double seconds_;
  bool trace_;
  mrcp::MrcpConfig config_;
  std::vector<Instance> instances_;
  Tracer tracer_;
  int rounds_ = 0;
  std::vector<std::string> errors_;
  std::size_t jobs_attempted_ = 0;
  std::size_t jobs_failed_ = 0;
  // One sample per set-up, simulation or replay of the run.
  std::vector<double> setup_s_;
  std::vector<double> generate_s_;
  std::vector<double> validate_s_;
  std::vector<double> driver_self_s_;
  std::vector<double> overhead_pct_;
  std::vector<Replay> replays_;
  double peak_rss_mb_ = 0.0;  ///< after the first round
  std::size_t unfinished_instances_ = 0;  ///< killed at their deadline
};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

std::string count_text(std::size_t n, const char* what) {
  return std::to_string(n) + " " + what;
}

std::vector<double> Bench::fastest(double SimTiming::*field) const {
  std::vector<double> v;
  for (const Instance& inst : instances_) v.push_back(inst.fastest.*field);
  return v;
}

std::vector<Metric> Bench::end_to_end() const {
  std::vector<double> calls;
  for (const Instance& inst : instances_) {
    calls.insert(calls.end(), inst.fastest_calls_ms.begin(),
                 inst.fastest_calls_ms.end());
  }
  const std::string over_rounds =
      ", each the fastest of " + count_text(rounds_, "rounds");
  const std::string call_text =
      count_text(calls.size(), def_.minedf ? "MinEDF-WC dispatching calls"
                                           : "MrcpRm::reschedule calls") +
      over_rounds;
  const std::string sims = "mean over " +
                           count_text(instances_.size(), "instances") +
                           " of their simulations" + over_rounds;
  const std::size_t beyond_p99 =
      calls.empty() ? 0 : calls.size() - percentile_rank(calls.size(), 0.99);
  return {
      {"setup_s", median(setup_s_), "s",
       count_text(setup_s_.size(), "set-ups")},
      {"sim_wall_s", mean(fastest(&SimTiming::wall_s)), "s", sims},
      {"O_ms", mean(fastest(&SimTiming::o_ms)), "ms", sims},
      {"resched_p50_ms", percentile(calls, 0.50), "ms", call_text},
      {"resched_p99_ms", percentile(calls, 0.99), "ms",
       call_text + ", " + std::to_string(beyond_p99) + " beyond p99"},
      {"peak_rss_mb", peak_rss_mb_, "MB",
       "largest resident set of a first-round measurement's process"},
  };
}

std::vector<Metric> Bench::per_layer() const {
  // Counts are exact totals over the first round's measurements; seconds
  // are medians over all of the run's traced replays or simulations.
  std::vector<const Replay*> traced;
  for (const Replay& r : replays_) {
    if (r.traced) traced.push_back(&r);
  }
  const auto first_sum = [&](auto&& field) {
    double s = 0.0;
    for (const Instance& inst : instances_) {
      s += static_cast<double>(field(*inst.first_replay));
    }
    return s;
  };
  const auto traced_median = [&](auto&& field) {
    std::vector<double> v;
    for (const Replay* r : traced) v.push_back(static_cast<double>(field(*r)));
    return median(std::move(v));
  };
  // Mean of a ledger field over the invocations that ran a solve.
  const auto solving_mean = [&](auto&& field) {
    double s = 0.0;
    std::size_t k = 0;
    for (const Instance& inst : instances_) {
      for (const mrcp::InvocationRecord& rec : inst.first_replay->ledger) {
        if (rec.attempts == 0) continue;
        s += static_cast<double>(field(rec));
        ++k;
      }
    }
    return k > 0 ? s / static_cast<double>(k) : 0.0;
  };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const std::string first =
      count_text(instances_.size(), "instances, first round");
  const std::string per_replay =
      "median of " + count_text(traced.size(), "traced replays");
  const std::string solving = "mean over solving invocations, " + first;

  double solve_sum = 0.0;
  double resched_sum = 0.0;
  double decisions_sum = 0.0;
  std::vector<double> solve_ms;
  std::vector<double> resched_ms;
  for (const Replay* r : traced) {
    solve_sum += r->stats.solve_wall_seconds;
    resched_sum += r->reschedule_s;
    decisions_sum += static_cast<double>(r->stats.solver_decisions);
    for (const mrcp::InvocationRecord& rec : r->ledger) {
      if (rec.attempts > 0) solve_ms.push_back(rec.solve_wall_seconds * 1e3);
    }
    resched_ms.insert(resched_ms.end(), r->reschedule_ms.begin(),
                      r->reschedule_ms.end());
  }
  const double attempts =
      first_sum([](const auto& r) { return r.stats.solve_attempts; });
  double max_live = 0.0;
  double jobs = 0.0;
  double late = 0.0;
  double turnaround = 0.0;
  double killed = 0.0;
  double failures = 0.0;
  for (const Instance& inst : instances_) {
    max_live = std::max(max_live, static_cast<double>(
                                      inst.first_replay->stats.max_live_tasks));
    const auto n = static_cast<double>(inst.sim->trimmed_jobs);
    jobs += n;
    late += static_cast<double>(inst.sim->late);
    turnaround += inst.sim->turnaround_s * n;
    killed += static_cast<double>(inst.sim->tasks_killed);
    failures += static_cast<double>(inst.sim->resource_failures);
  }
  const auto mrcp_only = [&](double v) { return def_.minedf ? 0.0 : v; };
  const auto minedf_only = [&](double v) { return def_.minedf ? v : 0.0; };

  return {
      {"mapreduce.generate_s", median(generate_s_), "s",
       count_text(generate_s_.size(), "generations")},

      {"cp.solve_calls", attempts, "count", first},
      {"cp.solve_total_s",
       traced_median([](const auto& r) { return r.stats.solve_wall_seconds; }),
       "s", per_replay},
      {"cp.solve_p99_ms", percentile(solve_ms, 0.99), "ms",
       count_text(solve_ms.size(), "solving invocations")},
      {"cp.decisions",
       first_sum([](const auto& r) { return r.stats.solver_decisions; }),
       "count", first},
      {"cp.fails",
       first_sum([](const auto& r) { return r.stats.solver_fails; }), "count",
       first},
      {"cp.decisions_per_s", ratio(decisions_sum, solve_sum), "1/s",
       "all traced replays"},
      {"cp.share_of_reschedule", ratio(solve_sum, resched_sum), "ratio",
       "base: reschedule time, all traced replays"},
      {"cp.budget_hits",
       first_sum([&](const auto& r) { return budget_hits(r); }), "count",
       "invocations whose solve time reached the budget, " + first},

      {"core.reschedule_calls", mrcp_only(first_sum([](const auto& r) {
         return r.counts.reschedule_calls;
       })),
       "count", first},
      {"core.reschedule_total_s",
       traced_median([](const auto& r) { return r.reschedule_s; }), "s",
       per_replay},
      {"core.reschedule_p90_ms", percentile(resched_ms, 0.90), "ms",
       count_text(resched_ms.size(), "traced calls")},
      {"core.reschedule_max_ms",
       resched_ms.empty()
           ? 0.0
           : *std::max_element(resched_ms.begin(), resched_ms.end()),
       "ms", count_text(resched_ms.size(), "traced calls")},
      {"core.submit_total_s",
       traced_median([](const auto& r) { return r.submit_s; }), "s",
       per_replay},
      {"core.fault_api_total_s",
       traced_median([](const auto& r) { return r.fault_api_s; }), "s",
       per_replay},
      {"core.self_s", traced_median([](const auto& r) {
         return r.reschedule_s - r.stats.solve_wall_seconds;
       }),
       "s", "reschedule minus solve time, " + per_replay},
      {"core.live_tasks_mean",
       solving_mean([](const auto& rec) { return rec.live_tasks; }), "count",
       solving},
      {"core.max_live_tasks", max_live, "count", first},
      {"core.dirty_jobs_mean",
       solving_mean([](const auto& rec) { return rec.dirty_jobs; }), "count",
       solving},
      {"core.frozen_tasks_mean",
       solving_mean([](const auto& rec) { return rec.frozen_tasks; }),
       "count", solving},
      {"core.model_cache_hit_ratio",
       ratio(first_sum([](const auto& r) { return r.stats.model_cache_hits; }),
             first_sum([](const auto& r) {
               return r.stats.model_cache_hits + r.stats.model_cache_misses;
             })),
       "ratio", "base: incremental solves, " + first},
      {"core.warm_start_ratio",
       ratio(first_sum([](const auto& r) { return r.stats.warm_starts_used; }),
             attempts),
       "ratio", "base: solve attempts, " + first},
      {"core.degraded_calls",
       first_sum([](const auto& r) { return r.degradation.degraded(); }),
       "count", "retry + fallback + parked, " + first},
      {"core.parked_calls",
       first_sum([](const auto& r) { return r.degradation.parked; }), "count",
       first},
      {"core.skipped_calls",
       first_sum([](const auto& r) { return r.degradation.skipped; }), "count",
       first},
      {"core.idle_calls",
       first_sum([](const auto& r) { return r.degradation.idle; }), "count",
       first},

      {"sim.validate_execution_s", median(validate_s_), "s",
       count_text(validate_s_.size(), "validations")},
      {"sim.driver_self_s", median(driver_self_s_), "s",
       "simulation minus scheduler minus validation, " +
           count_text(driver_self_s_.size(), "simulations")},
      {"sim.tasks_killed", killed, "count", first},
      {"sim.resource_failures", failures, "count", first},

      {"baseline.sched_total_s",
       minedf_only(mean(fastest(&SimTiming::sched_s))), "s",
       "mean over instances of their fastest simulation's"},
      {"baseline.dispatches", minedf_only(first_sum([](const auto& r) {
         return r.counts.invocations;
       })),
       "count", first},

      {"quality.P_pct", ratio(100.0 * late, jobs), "%",
       "late jobs after the warm-up trim, " + first},
      {"quality.T_s", ratio(turnaround, jobs), "sim_s",
       "mean turnaround after the warm-up trim, " + first},

      {"trace.overhead_pct", median(overhead_pct_), "%",
       "traced vs untraced replay of one instance, median of " +
           count_text(overhead_pct_.size(), "pairs")},
      {"trace.spans", static_cast<double>(tracer_.spans().size()), "count",
       "spans recorded"},
  };
}

std::string Bench::provenance() const {
  std::ostringstream os;
  os << "{\"workload\":\"" << def_.name << "\",\"seed\":" << seed_
     << ",\"first_instance_seed\":" << seed_ * kSeedStride
     << ",\"instances\":" << def_.instances << ",\"rounds\":" << rounds_
     << ",\"unfinished_instances\":" << unfinished_instances_
     << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
     << "\",\"hardware_threads\":" << std::thread::hardware_concurrency()
     << ",\"solver_threads\":" << config_.solve.num_threads
     << ",\"solver_budget_s\":" << config_.solve.time_limit_s
     << ",\"seconds\":" << seconds_ << ",\"trace\":" << (trace_ ? 1 : 0) << "}";
  return os.str();
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: mrcp_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n",
               why.c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string trace_out;
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoll(value.c_str(), &end, 10);
      if (*end != '\0' || seed < 0) {
        return usage("--seed takes a whole number >= 0");
      }
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(seconds > 0)) {
        return usage("--seconds takes a number > 0");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      trace = value == "1" ? 1 : 0;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (seed < 0 || seconds < 0 || trace < 0 || workload.empty()) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (workload == w.name) def = &w;
  }
  if (def == nullptr) return usage("unknown workload " + workload);

  Bench bench(*def, static_cast<std::uint64_t>(seed), seconds, trace == 1);
  const bool ok = bench.run();
  std::printf("provenance %s\n", bench.provenance().c_str());
  if (!ok) {
    for (const std::string& e : bench.errors()) {
      std::fprintf(stderr, "check failed: %s\n", e.c_str());
    }
    std::printf("{\"correct\": false, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {}}\n",
                bench.jobs_attempted(), bench.jobs_attempted());
    return 1;
  }
  const std::vector<Metric> metrics =
      trace == 1 ? bench.per_layer() : bench.end_to_end();
  for (const Metric& m : metrics) {
    std::printf("  %-26s %18.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples.c_str());
  }
  if (trace == 1) {
    for (const auto& [name, self] : bench.tracer().self_seconds()) {
      std::printf("  self time of %-24s %12.6f s\n", name.c_str(), self);
    }
    if (!trace_out.empty() && !bench.tracer().write_jsonl(trace_out)) {
      std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
      return 1;
    }
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(bench.jobs_attempted()) +
                     ", \"failed\": " + std::to_string(bench.jobs_failed()) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
