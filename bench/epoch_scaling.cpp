// Incremental rescheduling epoch-scaling bench (docs/incremental.md).
//
// Measures per-invocation cost of ReplanScope::kDirtyOnly as a function
// of the dirty-set size at a fixed live-set size, against the Table 2
// full-rebuild baseline (kAllUnstarted), and emits
// BENCH_epoch_scaling.json for the perf-smoke CI gate.
//
// Protocol: N jobs (2 maps + 1 reduce each) are submitted at t=0 with a
// far-future earliest start, so nothing ever executes and the live set
// stays constant at 3N tasks while epochs advance. Each epoch marks a
// job window dirty via mark_dirty() and invokes reschedule(), which
// builds and solves a fresh model every time:
//   - per dirty fraction f: `epochs` epochs, each on a different window
//     of f*N jobs (a rotating region, so no epoch repeats the previous
//     one's model);
//   - a soak at 10% dirty for `soak-epochs` epochs.
// The full-rebuild baseline re-solves all 3N tasks per epoch under
// kAllUnstarted. It is measured twice: with the §V.D separation
// (combined model + matchmaker — the healthy-path default, reported as
// context) and with the direct per-resource model, which is the
// apples-to-apples baseline: a frozen boundary fragments concrete
// slots, so an incremental epoch with clean jobs left solves the direct
// formulation, and speedup_10pct compares against the direct rebuild.
// Both numbers land in the JSON; see docs/incremental.md for when the
// combined full rebuild is the better deployment choice.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "core/mrcp_rm.h"
#include "mapreduce/cluster.h"
#include "mapreduce/job.h"

using namespace mrcp;

namespace {

constexpr Time kEarliestStart = Time{1'000'000};  // far future: nothing starts
constexpr Time kEpochStep = Time{1'000};

Job make_bench_job(JobId id) {
  Job j;
  j.id = id;
  j.arrival_time = Time{0};
  j.earliest_start = kEarliestStart;
  j.deadline = kEarliestStart + Time{10'000'000};  // loose: lateness never binds
  j.map_tasks.push_back(make_task(TaskType::kMap, Time{800}));
  j.map_tasks.push_back(make_task(TaskType::kMap, Time{1200}));
  j.reduce_tasks.push_back(make_task(TaskType::kReduce, Time{1000}));
  return j;
}

cp::SolveParams bench_solve_params() {
  cp::SolveParams p;
  p.portfolio = {cp::JobOrdering::kEdf};  // one deterministic descent
  p.improvement_fails = 0;
  p.lns_iterations = 0;
  p.time_limit_s = 600.0;
  p.num_threads = 1;
  return p;
}

MrcpRm make_rm(int resources, int jobs, ReplanScope scope, bool separation,
               Time* t) {
  MrcpConfig config;
  config.replan_scope = scope;
  config.use_separation = separation;
  config.defer_future_jobs = false;  // far-future jobs must stay live
  config.solve = bench_solve_params();
  MrcpRm rm(Cluster::homogeneous(resources, 4, 4), config);
  for (JobId id = 0; id < jobs; ++id) rm.submit(make_bench_job(id), Time{0});
  *t = Time{0};
  rm.reschedule(*t);
  return rm;
}

/// Marks jobs [begin, end) dirty, advances time one epoch step, and
/// returns the reschedule() wall time.
double timed_epoch(MrcpRm& rm, Time* t, JobId begin, JobId end) {
  for (JobId id = begin; id < end; ++id) rm.mark_dirty(id);
  *t += kEpochStep;
  Stopwatch sw;
  rm.reschedule(*t);
  return sw.elapsed_seconds();
}

struct FractionResult {
  double fraction = 0.0;
  JobId dirty_jobs = 0;
  double epoch_s = 0.0;  ///< mean over the rotating-window epochs
};

/// Mean reschedule() wall time over `epochs` epochs, each marking a
/// different window of `window` jobs dirty.
double rotating_epochs(MrcpRm& rm, Time* t, int jobs, JobId window,
                       int epochs, double* max_s = nullptr) {
  double total = 0.0;
  for (int e = 0; e < epochs; ++e) {
    const JobId begin = (static_cast<JobId>(e) * window) %
                        static_cast<JobId>(jobs - window + 1);
    const double s = timed_epoch(rm, t, begin, begin + window);
    total += s;
    if (max_s != nullptr) *max_s = std::max(*max_s, s);
  }
  return total / static_cast<double>(epochs);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags("Incremental rescheduling: per-epoch cost vs dirty-set size");
  flags.add_int("jobs", 10000, "live jobs (3 tasks each)")
      .add_int("resources", 100, "cluster size")
      .add_int("full-epochs", 3, "full-rebuild baseline epochs")
      .add_int("epochs", 3, "rotating-window epochs per dirty fraction")
      .add_int("soak-epochs", 20, "10%-dirty soak epochs")
      .add_string("out", "BENCH_epoch_scaling.json", "JSON output path");
  if (!flags.parse(argc, argv)) return flags.ok() ? 0 : 1;

  const int jobs = static_cast<int>(flags.get_int("jobs"));
  const int resources = static_cast<int>(flags.get_int("resources"));
  const int full_epochs = static_cast<int>(flags.get_int("full-epochs"));
  const int epochs = static_cast<int>(flags.get_int("epochs"));
  const int soak_epochs = static_cast<int>(flags.get_int("soak-epochs"));
  MRCP_CHECK(jobs >= 100 && resources >= 1 && epochs >= 1 && soak_epochs >= 1);

  // ---- Full-rebuild baselines (kAllUnstarted) ----
  double full_combined_s = 0.0;
  double full_direct_s = 0.0;
  for (const bool separation : {true, false}) {
    Time t;
    MrcpRm rm = make_rm(resources, jobs, ReplanScope::kAllUnstarted,
                        separation, &t);
    double total = 0.0;
    for (int e = 0; e < full_epochs; ++e) {
      t += kEpochStep;
      Stopwatch sw;
      rm.reschedule(t);
      total += sw.elapsed_seconds();
    }
    (separation ? full_combined_s : full_direct_s) =
        total / static_cast<double>(full_epochs);
  }
  const double full_rebuild_s = full_direct_s;
  std::printf("full rebuild (%d tasks): combined %.4fs  direct %.4fs\n",
              jobs * 3, full_combined_s, full_direct_s);

  // ---- Incremental (kDirtyOnly) ----
  Time t;
  Stopwatch init_sw;
  MrcpRm rm = make_rm(resources, jobs, ReplanScope::kDirtyOnly,
                      /*separation=*/false, &t);
  const double initial_full_s = init_sw.elapsed_seconds();

  const std::vector<double> fractions = {0.01, 0.05, 0.10, 0.25, 0.50, 1.00};
  std::vector<FractionResult> results;
  double epoch_10pct = 0.0;
  for (const double f : fractions) {
    FractionResult r;
    r.fraction = f;
    r.dirty_jobs = static_cast<JobId>(f * jobs);
    r.epoch_s = rotating_epochs(rm, &t, jobs, r.dirty_jobs, epochs);
    if (f == 0.10) epoch_10pct = r.epoch_s;
    std::printf("dirty %5.0f%% (%ld jobs): %.4fs per epoch\n", f * 100,
                static_cast<long>(r.dirty_jobs), r.epoch_s);
    results.push_back(r);
  }

  // Soak: sustained 10%-dirty epochs at the full live size.
  double soak_max = 0.0;
  const double soak_mean_s = rotating_epochs(
      rm, &t, jobs, static_cast<JobId>(jobs / 10), soak_epochs, &soak_max);
  std::printf("soak (%d epochs at 10%%): mean %.4fs  max %.4fs\n", soak_epochs,
              soak_mean_s, soak_max);

  const MrcpStats& st = rm.stats();
  MRCP_CHECK_MSG(st.dirty_promotions == 0,
                 "dirty-set bookkeeping missed an event");
  const double speedup = epoch_10pct > 0.0 ? full_rebuild_s / epoch_10pct
                                          : 0.0;
  std::printf("speedup at 10%% dirty: %.1fx\n", speedup);

  const std::string out = flags.get_string("out");
  FILE* fp = std::fopen(out.c_str(), "w");
  MRCP_CHECK_MSG(fp != nullptr, "cannot open bench output file");
  std::fprintf(fp, "{\n");
  std::fprintf(fp, "  \"bench\": \"epoch_scaling\",\n");
  std::fprintf(fp, "  \"live_jobs\": %d,\n", jobs);
  std::fprintf(fp, "  \"live_tasks\": %d,\n", jobs * 3);
  std::fprintf(fp, "  \"resources\": %d,\n", resources);
  std::fprintf(fp, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(fp, "  \"initial_full_s\": %.6f,\n", initial_full_s);
  std::fprintf(fp, "  \"full_rebuild_combined_s\": %.6f,\n", full_combined_s);
  std::fprintf(fp, "  \"full_rebuild_direct_s\": %.6f,\n", full_direct_s);
  std::fprintf(fp, "  \"full_rebuild_s\": %.6f,\n", full_rebuild_s);
  std::fprintf(fp, "  \"fractions\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const FractionResult& r = results[i];
    std::fprintf(fp,
                 "    {\"fraction\": %.2f, \"dirty_jobs\": %ld, "
                 "\"epoch_s\": %.6f}%s\n",
                 r.fraction, static_cast<long>(r.dirty_jobs), r.epoch_s,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(fp, "  ],\n");
  std::fprintf(fp,
               "  \"soak\": {\"epochs\": %d, \"mean_s\": %.6f, "
               "\"max_s\": %.6f},\n",
               soak_epochs, soak_mean_s, soak_max);
  std::fprintf(fp, "  \"dirty_promotions\": %llu,\n",
               static_cast<unsigned long long>(st.dirty_promotions));
  std::fprintf(fp, "  \"speedup_10pct\": %.2f\n", speedup);
  std::fprintf(fp, "}\n");
  std::fclose(fp);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
