// Seeded crash-injection recovery harness (docs/crash_recovery.md).
//
// Every test follows the same shape: run a deterministic workload to
// completion with the journal on (the *baseline*), then for a sweep of
// crash points kill a fresh run after exactly N journal records, restore
// from whatever reached disk, resume, and require the resumed run to be
// indistinguishable from the uninterrupted one — byte-identical journal
// file (which the Journal's verification mode enforces record by record)
// and an identical executed trace, job records, kills and downtime.
// Sweeps cover snapshot restores, cold restores (journal only), torn
// final records, corrupt snapshot tails, and mid-journal bit flips.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "../test_util.h"
#include "common/io/file_io.h"
#include "common/io/record_io.h"
#include "sim/cluster_sim.h"

namespace mrcp::sim {
namespace {

using testutil::make_job;
using testutil::make_workload;

/// Budget by fails/iterations only — the time limit must never bind, so
/// runs are bit-reproducible across machines, repetitions and resumes.
MrcpConfig deterministic_config() {
  MrcpConfig c;
  c.solve.time_limit_s = 120.0;
  c.solve.improvement_fails = 120;
  c.solve.lns_iterations = 2;
  return c;
}

struct Scenario {
  Workload workload;
  MrcpConfig config;
  SimOptions options;
};

/// Fault-free, deadline-tight workload: arrivals, plans, deferral
/// releases and completions feed the journal.
Scenario fault_free_scenario() {
  Scenario s;
  std::vector<Job> jobs;
  for (int i = 0; i < 20; ++i) {
    jobs.push_back(make_job(i, Time{i * 1500}, Time{i * 1500},
                            Time{i * 1500 + 60000},
                            {Time{4000}, Time{3000}}, {Time{2000}}));
  }
  s.workload = make_workload(std::move(jobs), 3, 2, 2);
  s.config = deterministic_config();
  return s;
}

/// Aggressive resource failures on top: downs, ups, kills and degraded
/// plans join the journal stream.
Scenario faulty_scenario() {
  Scenario s;
  std::vector<Job> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(make_job(i, Time{i * 2000}, Time{i * 2000},
                            Time{i * 2000 + 200000},
                            {Time{5000}, Time{5000}}, {Time{4000}}));
  }
  s.workload = make_workload(std::move(jobs), 3, 2, 2);
  s.config = deterministic_config();
  s.options.faults.mtbf_s = 8.0;
  s.options.faults.mttr_s = 4.0;
  s.options.faults.seed = 3;
  return s;
}

/// Heterogeneous cluster (mixed speeds, two racks), placement-
/// constrained jobs and correlated rack bursts on top of individual
/// failures: the v2 journal task fields and the injector's v2 rack
/// state all land in the durability stream.
Scenario hetero_rack_scenario() {
  Scenario s;
  Cluster c;
  c.add_resource_hetero(2, 2, 0, 1500, 0);
  c.add_resource_hetero(2, 2, 0, 1000, 0);
  c.add_resource_hetero(2, 2, 0, 500, 1);
  std::vector<Job> jobs;
  for (int i = 0; i < 8; ++i) {
    Job j = make_job(i, Time{i * 2000}, Time{i * 2000},
                     Time{i * 2000 + 200000}, {Time{5000}, Time{5000}},
                     {Time{4000}});
    switch (i % 3) {
      case 0:
        j.map_tasks[0].affinity_group = 0;
        j.map_tasks[1].affinity_group = 0;
        break;
      case 1:
        j.map_tasks[0].candidates = {0, 1};
        break;
      default:
        j.map_tasks[1].racks = {0};
        break;
    }
    jobs.push_back(j);
  }
  s.workload.cluster = c;
  s.workload.jobs = std::move(jobs);
  s.config = deterministic_config();
  s.options.faults.mtbf_s = 10.0;
  s.options.faults.mttr_s = 4.0;
  s.options.faults.rack_mtbf_s = 25.0;
  s.options.faults.rack_mttr_s = 5.0;
  s.options.faults.seed = 11;
  return s;
}

SimMetrics run_with(const Scenario& s, const DurabilityOptions& durability) {
  SimOptions options = s.options;
  options.durability = durability;
  return simulate_mrcp(s.workload, s.config, options);
}

std::string slurp(const std::string& path) {
  std::string content;
  EXPECT_TRUE(io::read_file(path, &content)) << path;
  return content;
}

void expect_same_trace(const SimMetrics& a, const SimMetrics& b) {
  ASSERT_EQ(a.executed.size(), b.executed.size());
  for (std::size_t i = 0; i < a.executed.size(); ++i) {
    EXPECT_EQ(a.executed[i].job, b.executed[i].job) << i;
    EXPECT_EQ(a.executed[i].task_index, b.executed[i].task_index) << i;
    EXPECT_EQ(a.executed[i].resource, b.executed[i].resource) << i;
    EXPECT_EQ(a.executed[i].start, b.executed[i].start) << i;
    EXPECT_EQ(a.executed[i].end, b.executed[i].end) << i;
  }
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].completion, b.records[i].completion) << i;
    EXPECT_EQ(a.records[i].late, b.records[i].late) << i;
    EXPECT_EQ(a.records[i].failure_affected, b.records[i].failure_affected)
        << i;
  }
  ASSERT_EQ(a.killed.size(), b.killed.size());
  for (std::size_t i = 0; i < a.killed.size(); ++i) {
    EXPECT_EQ(a.killed[i].job, b.killed[i].job) << i;
    EXPECT_EQ(a.killed[i].start, b.killed[i].start) << i;
    EXPECT_EQ(a.killed[i].end, b.killed[i].end) << i;
  }
  ASSERT_EQ(a.downtime.size(), b.downtime.size());
  for (std::size_t i = 0; i < a.downtime.size(); ++i) {
    EXPECT_EQ(a.downtime[i].resource, b.downtime[i].resource) << i;
    EXPECT_EQ(a.downtime[i].start, b.downtime[i].start) << i;
    EXPECT_EQ(a.downtime[i].end, b.downtime[i].end) << i;
  }
}

struct Baseline {
  SimMetrics metrics;
  std::string journal;  ///< full uninterrupted journal, bytes
  std::uint64_t records = 0;
};

Baseline run_baseline(const Scenario& s, const std::string& prefix,
                      std::uint64_t snapshot_every) {
  DurabilityOptions dur;
  dur.journal_prefix = prefix;
  dur.snapshot_every = snapshot_every;
  Baseline b;
  b.metrics = run_with(s, dur);
  EXPECT_FALSE(b.metrics.crash_stopped);
  b.journal = slurp(dur.journal_path());
  b.records = io::read_framed(b.journal).records.size();
  return b;
}

/// Crash a fresh run after exactly `crash_after` journal records at
/// `prefix`, then resume and compare against the baseline.
void crash_and_recover(const Scenario& s, const Baseline& baseline,
                       const std::string& prefix, std::uint64_t snapshot_every,
                       std::uint64_t crash_after) {
  DurabilityOptions dur;
  dur.journal_prefix = prefix;
  dur.snapshot_every = snapshot_every;
  dur.crash_after_records = crash_after;
  const SimMetrics crashed = run_with(s, dur);
  EXPECT_EQ(crashed.crash_stopped, crash_after < baseline.records);
  // Whatever reached disk must be a byte-prefix of the uninterrupted
  // journal — determinism of the run up to the crash point.
  const std::string partial = slurp(dur.journal_path());
  ASSERT_LE(partial.size(), baseline.journal.size());
  EXPECT_EQ(partial, baseline.journal.substr(0, partial.size()));

  dur.crash_after_records = 0;
  dur.restore = true;
  const SimMetrics resumed = run_with(s, dur);
  EXPECT_FALSE(resumed.crash_stopped);
  EXPECT_EQ(slurp(dur.journal_path()), baseline.journal)
      << "resumed journal diverged (crash point " << crash_after << ")";
  expect_same_trace(resumed, baseline.metrics);
}

/// Truncate the file at `path` by `cut` bytes (a torn tail).
void tear_tail(const std::string& path, std::uint64_t cut) {
  const std::string content = slurp(path);
  ASSERT_GE(content.size(), cut);
  ASSERT_TRUE(io::truncate_file(path, content.size() - cut));
}

TEST(CrashRecovery, JournalingDoesNotPerturbTheRun) {
  const Scenario s = faulty_scenario();
  const SimMetrics plain = run_with(s, DurabilityOptions{});
  const Baseline journaled =
      run_baseline(s, testing::TempDir() + "crt_perturb", 5);
  expect_same_trace(plain, journaled.metrics);
}

TEST(CrashRecovery, JournalBytesIndependentOfSnapshotCadence) {
  const Scenario s = fault_free_scenario();
  const Baseline dense = run_baseline(s, testing::TempDir() + "crt_dense", 3);
  const Baseline sparse = run_baseline(s, testing::TempDir() + "crt_sparse", 0);
  EXPECT_EQ(dense.journal, sparse.journal);
  EXPECT_GT(dense.records, 0u);
}

// The sweeps below must together cover at least 200 distinct crash
// points (the crash-soak contract, see docs/crash_recovery.md); each
// asserts its own floor and the floors sum past 200.

TEST(CrashRecovery, FaultFreeSweep) {
  const Scenario s = fault_free_scenario();
  const std::string prefix = testing::TempDir() + "crt_ff";
  const Baseline baseline = run_baseline(s, prefix + "_base", 5);
  // Every crash point, including the no-crash edge N == total records.
  std::uint64_t points = 0;
  for (std::uint64_t n = 1; n <= baseline.records; ++n, ++points) {
    crash_and_recover(s, baseline, prefix, 5, n);
  }
  EXPECT_GE(points, 50u) << "workload too small for the sweep";
}

TEST(CrashRecovery, FaultySweep) {
  const Scenario s = faulty_scenario();
  const std::string prefix = testing::TempDir() + "crt_fault";
  const Baseline baseline = run_baseline(s, prefix + "_base", 5);
  std::uint64_t points = 0;
  for (std::uint64_t n = 1; n < baseline.records; ++n, ++points) {
    crash_and_recover(s, baseline, prefix, 5, n);
  }
  EXPECT_GE(points, 55u) << "workload too small for the sweep";
}

TEST(CrashRecovery, HeteroRackFaultSweep) {
  // Speed-scaled durations, placement constraints and rack bursts all
  // flow through the journal and the injector snapshot; every crash
  // point must still restore byte-identically.
  const Scenario s = hetero_rack_scenario();
  const std::string prefix = testing::TempDir() + "crt_hetero";
  const Baseline baseline = run_baseline(s, prefix + "_base", 5);
  std::uint64_t points = 0;
  for (std::uint64_t n = 1; n < baseline.records; n += 2, ++points) {
    crash_and_recover(s, baseline, prefix, 5, n);
  }
  EXPECT_GE(points, 25u) << "hetero workload too small for the sweep";
}

TEST(CrashRecovery, ColdRestoreSweep) {
  // snapshot_every = 0: no snapshots at all; recovery re-runs from
  // scratch with the whole valid journal as the verification queue.
  const Scenario s = fault_free_scenario();
  const std::string prefix = testing::TempDir() + "crt_cold";
  const Baseline baseline = run_baseline(s, prefix + "_base", 0);
  std::uint64_t points = 0;
  for (std::uint64_t n = 1; n < baseline.records; n += 2, ++points) {
    crash_and_recover(s, baseline, prefix, 0, n);
  }
  EXPECT_GE(points, 25u);
}

TEST(CrashRecovery, TornFinalRecordSweep) {
  // The crash tears the last journal record: truncate a seeded number of
  // bytes off the tail before resuming. The reader must fall back to the
  // last whole record and recovery must still converge byte-identically.
  const Scenario s = faulty_scenario();
  const std::string prefix = testing::TempDir() + "crt_torn";
  const Baseline baseline = run_baseline(s, prefix + "_base", 5);
  // fixed-seed crash-point sweep (lint-ok: rng-construction)
  std::mt19937_64 rng(0xC0FFEE);
  std::uint64_t points = 0;
  for (std::uint64_t n = 2; n < baseline.records; ++n, ++points) {
    DurabilityOptions dur;
    dur.journal_prefix = prefix;
    dur.snapshot_every = 5;
    dur.crash_after_records = n;
    const SimMetrics crashed = run_with(s, dur);
    EXPECT_TRUE(crashed.crash_stopped);
    const std::string partial = slurp(dur.journal_path());
    // Cut into (at most through) the final record.
    const std::uint64_t cut =
        1 + rng() % std::min<std::uint64_t>(partial.size() - 1, 24);
    tear_tail(dur.journal_path(), cut);

    dur.crash_after_records = 0;
    dur.restore = true;
    const SimMetrics resumed = run_with(s, dur);
    EXPECT_FALSE(resumed.crash_stopped);
    EXPECT_EQ(slurp(dur.journal_path()), baseline.journal)
        << "torn-tail recovery diverged (crash point " << n << ", cut " << cut
        << ")";
    expect_same_trace(resumed, baseline.metrics);
  }
  EXPECT_GE(points, 55u);
}

TEST(CrashRecovery, MidSnapshotCrashSweep) {
  // Kill the scheduler "while writing a snapshot": tear the snapshot
  // file's tail so its last record is unreadable. Recovery must fall
  // back to an earlier snapshot (or a cold restore) and still converge.
  const Scenario s = faulty_scenario();
  const std::string prefix = testing::TempDir() + "crt_snap";
  const Baseline baseline = run_baseline(s, prefix + "_base", 4);
  // fixed-seed crash-point sweep (lint-ok: rng-construction)
  std::mt19937_64 rng(0xBADF00D);
  std::uint64_t points = 0;
  for (std::uint64_t n = 5; n < baseline.records; n += 2, ++points) {
    DurabilityOptions dur;
    dur.journal_prefix = prefix;
    dur.snapshot_every = 4;
    dur.crash_after_records = n;
    const SimMetrics crashed = run_with(s, dur);
    EXPECT_TRUE(crashed.crash_stopped);
    const std::string snap = slurp(dur.snapshot_path());
    ASSERT_FALSE(snap.empty());
    tear_tail(dur.snapshot_path(), 1 + rng() % std::min<std::uint64_t>(
                                             snap.size() - 1, snap.size() / 2));

    dur.crash_after_records = 0;
    dur.restore = true;
    const SimMetrics resumed = run_with(s, dur);
    EXPECT_FALSE(resumed.crash_stopped);
    EXPECT_EQ(slurp(dur.journal_path()), baseline.journal)
        << "mid-snapshot recovery diverged (crash point " << n << ")";
    expect_same_trace(resumed, baseline.metrics);
  }
  EXPECT_GE(points, 25u);
}

TEST(CrashRecovery, BitFlipMidJournalTruncatesAndRecovers) {
  // A flipped byte in the middle of the journal fails that record's CRC;
  // the valid prefix ends there, recovery restores an earlier snapshot
  // and re-derives everything past the flip.
  const Scenario s = fault_free_scenario();
  const std::string prefix = testing::TempDir() + "crt_flip";
  const Baseline baseline = run_baseline(s, prefix, 5);
  std::string corrupted = baseline.journal;
  corrupted[corrupted.size() / 2] ^= 0x20;
  ASSERT_TRUE(io::write_text_file(prefix + ".journal", corrupted));

  DurabilityOptions dur;
  dur.journal_prefix = prefix;
  dur.snapshot_every = 5;
  dur.restore = true;
  const SimMetrics resumed = run_with(s, dur);
  EXPECT_FALSE(resumed.crash_stopped);
  EXPECT_EQ(slurp(dur.journal_path()), baseline.journal);
  expect_same_trace(resumed, baseline.metrics);
}

TEST(CrashRecovery, ResumeAfterCompletionIsIdempotent) {
  // Restoring a journal of a *finished* run replays nothing new and
  // leaves the file untouched.
  const Scenario s = fault_free_scenario();
  const std::string prefix = testing::TempDir() + "crt_idem";
  const Baseline baseline = run_baseline(s, prefix, 5);
  DurabilityOptions dur;
  dur.journal_prefix = prefix;
  dur.snapshot_every = 5;
  dur.restore = true;
  const SimMetrics resumed = run_with(s, dur);
  EXPECT_EQ(slurp(dur.journal_path()), baseline.journal);
  expect_same_trace(resumed, baseline.metrics);
}

#if GTEST_HAS_DEATH_TEST
TEST(CrashRecoveryDeath, RestoreWithoutJournalAborts) {
  const Scenario s = fault_free_scenario();
  DurabilityOptions dur;
  dur.journal_prefix = testing::TempDir() + "crt_missing_nonexistent";
  dur.restore = true;
  EXPECT_DEATH(run_with(s, dur), "cannot read the journal");
}
#endif

}  // namespace
}  // namespace mrcp::sim
