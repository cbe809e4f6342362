// Journal schema tests: every serialized type must round-trip exactly
// over seeded random instances (1000 per type — the encode/decode
// property the recovery path stands on), and malformed input —
// truncation, bit flips, unknown versions, trailing bytes — must be
// rejected with a byte offset, never crash or silently misparse.
// The Journal class's resume-verification and crash-injection modes are
// covered at the bottom (docs/crash_recovery.md).
#include "core/journal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/io/file_io.h"
#include "common/io/record_io.h"

namespace mrcp {
namespace {

// ---------------------------------------------------------------------------
// Seeded generators. Sizes stay small (the property is about field
// coverage, not volume); values span the full domain of each field.
// ---------------------------------------------------------------------------

using Rng = std::mt19937_64;

std::int32_t rnd_i32(Rng& rng) { return static_cast<std::int32_t>(rng()); }

Ticks rnd_ticks(Rng& rng) { return Ticks{static_cast<std::int64_t>(rng())}; }

double rnd_f64(Rng& rng) {
  return std::uniform_real_distribution<double>(-1e15, 1e15)(rng);
}

Task rnd_task(Rng& rng) {
  Task task;
  task.type = (rng() & 1) != 0 ? TaskType::kReduce : TaskType::kMap;
  task.exec_time = rnd_ticks(rng);
  task.res_req = rnd_i32(rng);
  task.net_demand = rnd_i32(rng);
  // Placement constraints (journal format v2): empty most of the time so
  // the default-shaped encoding is exercised too.
  for (std::uint64_t i = rng() % 3; i > 0; --i) {
    task.candidates.push_back(rnd_i32(rng));
  }
  for (std::uint64_t i = rng() % 3; i > 0; --i) {
    task.racks.push_back(rnd_i32(rng));
  }
  task.affinity_group = (rng() & 1) != 0 ? rnd_i32(rng) : -1;
  return task;
}

Job rnd_job(Rng& rng) {
  Job job;
  job.id = rnd_i32(rng);
  job.arrival_time = rnd_ticks(rng);
  job.earliest_start = rnd_ticks(rng);
  job.deadline = rnd_ticks(rng);
  for (std::uint64_t i = rng() % 5; i > 0; --i) {
    job.map_tasks.push_back(rnd_task(rng));
  }
  for (std::uint64_t i = rng() % 4; i > 0; --i) {
    job.reduce_tasks.push_back(rnd_task(rng));
  }
  for (std::uint64_t i = rng() % 4; i > 0; --i) {
    job.precedences.emplace_back(rnd_i32(rng), rnd_i32(rng));
  }
  return job;
}

PlannedTask rnd_planned_task(Rng& rng) {
  PlannedTask task;
  task.job = rnd_i32(rng);
  task.task_index = rnd_i32(rng);
  task.type = (rng() & 1) != 0 ? TaskType::kReduce : TaskType::kMap;
  task.resource = rnd_i32(rng);
  task.start = rnd_ticks(rng);
  task.end = rnd_ticks(rng);
  task.started = (rng() & 1) != 0;
  return task;
}

Plan rnd_plan(Rng& rng) {
  Plan plan;
  plan.epoch = rng();
  plan.planned_at = rnd_ticks(rng);
  for (std::uint64_t i = rng() % 6; i > 0; --i) {
    plan.tasks.push_back(rnd_planned_task(rng));
  }
  for (std::uint64_t i = rng() % 4; i > 0; --i) {
    plan.parked.emplace_back(static_cast<JobId>(rng() % 1000),
                             static_cast<int>(rng() % 100));
  }
  return plan;
}

MrcpStats rnd_stats(Rng& rng) {
  MrcpStats stats;
  stats.invocations = rng();
  stats.jobs_submitted = rng();
  stats.jobs_completed = rng();
  stats.jobs_completed_late = rng();
  stats.total_sched_seconds = rnd_f64(rng);
  stats.solver_decisions = static_cast<std::int64_t>(rng());
  stats.solver_fails = static_cast<std::int64_t>(rng());
  stats.max_live_tasks = rng();
  stats.resource_down_events = rng();
  stats.resource_up_events = rng();
  stats.tasks_reset_by_failure = rng();
  stats.solve_attempts = rng();
  stats.fallback_plans = rng();
  stats.jobs_parked = rng();
  stats.solve_wall_seconds = rnd_f64(rng);
  stats.dirty_promotions = rng();
  return stats;
}

InvocationRecord rnd_invocation(Rng& rng) {
  InvocationRecord rec;
  rec.epoch = rng();
  rec.sim_time = rnd_ticks(rng);
  rec.attempts = rnd_i32(rng);
  rec.last_status = static_cast<cp::SolveStatus>(rng() % 4);
  rec.outcome = static_cast<InvocationOutcome>(
      rng() % (static_cast<unsigned>(InvocationOutcome::kIdle) + 1));
  rec.solve_wall_seconds = rnd_f64(rng);
  rec.live_tasks = static_cast<std::size_t>(rng() % 100000);
  rec.parked_jobs = static_cast<std::size_t>(rng() % 100000);
  rec.dirty_jobs = static_cast<std::size_t>(rng() % 100000);
  rec.frozen_tasks = static_cast<std::size_t>(rng() % 100000);
  return rec;
}

/// encode(decode(encode(x))) == encode(x): a byte-level fixpoint is the
/// round-trip proof without needing operator== on every type.
template <typename T, typename Encode, typename Decode>
void expect_fixpoint(const T& value, Encode encode, Decode decode) {
  io::Encoder enc;
  encode(enc, value);
  const std::string first = enc.take();
  io::Decoder dec(first);
  const T back = decode(dec);
  ASSERT_TRUE(dec.done()) << dec.error();
  io::Encoder enc2;
  encode(enc2, back);
  ASSERT_EQ(enc2.str(), first);
}

// ---------------------------------------------------------------------------
// Round trips: 1000 seeded instances per serialized type.
// ---------------------------------------------------------------------------

TEST(JournalCodecs, TicksRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const Ticks t = rnd_ticks(rng);
    io::Encoder enc;
    encode_ticks(enc, t);
    io::Decoder dec(enc.str());
    ASSERT_EQ(decode_ticks(dec), t);
    ASSERT_TRUE(dec.done());
  }
}

TEST(JournalCodecs, TaskRoundTrip) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const Task task = rnd_task(rng);
    expect_fixpoint(task, encode_task, decode_task);
    io::Encoder enc;
    encode_task(enc, task);
    io::Decoder dec(enc.str());
    const Task back = decode_task(dec);
    ASSERT_EQ(back.type, task.type);
    ASSERT_EQ(back.exec_time, task.exec_time);
    ASSERT_EQ(back.res_req, task.res_req);
    ASSERT_EQ(back.net_demand, task.net_demand);
    ASSERT_EQ(back.candidates, task.candidates);
    ASSERT_EQ(back.racks, task.racks);
    ASSERT_EQ(back.affinity_group, task.affinity_group);
  }
}

TEST(JournalCodecs, JobRoundTrip) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const Job job = rnd_job(rng);
    expect_fixpoint(job, encode_job, decode_job);
    io::Encoder enc;
    encode_job(enc, job);
    io::Decoder dec(enc.str());
    const Job back = decode_job(dec);
    ASSERT_EQ(back.id, job.id);
    ASSERT_EQ(back.deadline, job.deadline);
    ASSERT_EQ(back.map_tasks.size(), job.map_tasks.size());
    ASSERT_EQ(back.reduce_tasks.size(), job.reduce_tasks.size());
    ASSERT_EQ(back.precedences, job.precedences);
  }
}

TEST(JournalCodecs, PlannedTaskRoundTrip) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    expect_fixpoint(rnd_planned_task(rng), encode_planned_task,
                    decode_planned_task);
  }
}

TEST(JournalCodecs, PlanRoundTrip) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const Plan plan = rnd_plan(rng);
    expect_fixpoint(plan, encode_plan, decode_plan);
    io::Encoder enc;
    encode_plan(enc, plan);
    io::Decoder dec(enc.str());
    const Plan back = decode_plan(dec);
    ASSERT_EQ(back.epoch, plan.epoch);
    ASSERT_EQ(back.planned_at, plan.planned_at);
    ASSERT_EQ(back.tasks.size(), plan.tasks.size());
    ASSERT_EQ(back.parked, plan.parked);
  }
}

TEST(JournalCodecs, MrcpStatsRoundTrip) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    expect_fixpoint(rnd_stats(rng), encode_mrcp_stats, decode_mrcp_stats);
  }
}

TEST(JournalCodecs, InvocationRecordRoundTrip) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    expect_fixpoint(rnd_invocation(rng), encode_invocation_record,
                    decode_invocation_record);
  }
}

TEST(JournalCodecs, PortfolioProvenanceIsNotJournaled) {
  // The portfolio why-fields and the call's wall clocks (whole call, per
  // stage and per solver phase) are a side channel: journal bytes (and so snapshots and
  // recovery) must not depend on them.
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    const InvocationRecord rec = rnd_invocation(rng);
    InvocationRecord with_provenance = rec;
    with_provenance.portfolio_members_run = 1 + static_cast<int>(rng() % 9);
    with_provenance.portfolio_stopped_at_bound = true;
    with_provenance.winning_member = static_cast<int>(rng() % 9);
    with_provenance.repeat_descents_skipped =
        1 + static_cast<std::int64_t>(rng() % 40);
    with_provenance.portfolio_seconds =
        1e-4 * static_cast<double>(1 + rng() % 500);
    with_provenance.improvement_seconds =
        1e-4 * static_cast<double>(1 + rng() % 500);
    with_provenance.lns_seconds = 1e-4 * static_cast<double>(1 + rng() % 500);
    with_provenance.wall_seconds = 1e-3 * static_cast<double>(1 + rng() % 500);
    with_provenance.collect_wall_seconds =
        1e-4 * static_cast<double>(1 + rng() % 500);
    with_provenance.build_wall_seconds =
        1e-4 * static_cast<double>(1 + rng() % 500);
    with_provenance.matchmake_wall_seconds =
        1e-4 * static_cast<double>(1 + rng() % 500);
    with_provenance.publish_wall_seconds =
        1e-4 * static_cast<double>(1 + rng() % 500);
    io::Encoder plain;
    encode_invocation_record(plain, rec);
    io::Encoder marked;
    encode_invocation_record(marked, with_provenance);
    ASSERT_EQ(plain.str(), marked.str());
  }
}

TEST(JournalCodecs, LedgerRoundTrip) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    DegradationLedger ledger;
    for (std::uint64_t r = rng() % 8; r > 0; --r) {
      ledger.record(rnd_invocation(rng));
    }
    expect_fixpoint(ledger, encode_ledger, decode_ledger);
    // The decoded ledger replays record(), so the aggregate counters
    // must match too, not just the record list.
    io::Encoder enc;
    encode_ledger(enc, ledger);
    io::Decoder dec(enc.str());
    const DegradationLedger back = decode_ledger(dec);
    ASSERT_EQ(back.counts().invocations(), ledger.counts().invocations());
    ASSERT_EQ(back.counts().solve_attempts, ledger.counts().solve_attempts);
  }
}

// ---------------------------------------------------------------------------
// Journal events.
// ---------------------------------------------------------------------------

/// A random event of a random type, returned as its encoded payload.
std::string rnd_event_payload(Rng& rng) {
  switch (rng() % 7) {
    case 0:
      return encode_submit_event(rnd_job(rng), rnd_ticks(rng));
    case 1:
      return encode_release_event(rnd_i32(rng), rnd_ticks(rng));
    case 2:
      return encode_completion_event(rnd_i32(rng), rnd_ticks(rng));
    case 3:
      return encode_resource_down_event(rnd_i32(rng), rnd_ticks(rng));
    case 4:
      return encode_resource_up_event(rnd_i32(rng), rnd_ticks(rng));
    case 5:
      return encode_plan_event(rnd_plan(rng));
    default: {
      std::set<JobId> parked;
      for (std::uint64_t i = rng() % 6; i > 0; --i) {
        parked.insert(rnd_i32(rng));
      }
      return encode_park_retry_event(rnd_ticks(rng), parked);
    }
  }
}

/// Re-encode a decoded event through the same builder that produced it.
std::string reencode(const JournalEvent& event) {
  switch (event.type) {
    case JournalEventType::kSubmit:
      return encode_submit_event(event.job, event.time);
    case JournalEventType::kRelease:
      return encode_release_event(event.job_id, event.time);
    case JournalEventType::kCompletion:
      return encode_completion_event(event.job_id, event.time);
    case JournalEventType::kResourceDown:
      return encode_resource_down_event(event.resource, event.time);
    case JournalEventType::kResourceUp:
      return encode_resource_up_event(event.resource, event.time);
    case JournalEventType::kPlanPublished:
      return encode_plan_event(event.plan);
    case JournalEventType::kParkRetry:
      return encode_park_retry_event(
          event.time,
          std::set<JobId>(event.parked.begin(), event.parked.end()));
  }
  return {};
}

TEST(JournalEvents, AllTypesRoundTrip) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const std::string payload = rnd_event_payload(rng);
    JournalEvent event;
    std::string error;
    ASSERT_TRUE(decode_journal_event(payload, &event, &error)) << error;
    ASSERT_EQ(reencode(event), payload);
  }
}

TEST(JournalEvents, EveryTruncationIsRejectedWithOffset) {
  // Chop one instance of every event type at every byte: all proper
  // prefixes must be rejected, and the error must carry a byte offset.
  Rng rng(10);
  for (int variant = 0; variant < 14; ++variant) {
    const std::string payload = rnd_event_payload(rng);
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      JournalEvent event;
      std::string error;
      ASSERT_FALSE(
          decode_journal_event(payload.substr(0, cut), &event, &error))
          << "cut=" << cut;
      ASSERT_NE(error.find("byte"), std::string::npos) << error;
    }
  }
}

TEST(JournalEvents, UnknownTypeAndVersionRejected) {
  const std::string payload = encode_release_event(7, Time{0});
  JournalEvent event;
  std::string error;

  std::string bad_type = payload;
  bad_type[0] = '\x00';
  EXPECT_FALSE(decode_journal_event(bad_type, &event, &error));
  EXPECT_NE(error.find("unknown journal event type"), std::string::npos)
      << error;
  bad_type[0] = '\x63';
  EXPECT_FALSE(decode_journal_event(bad_type, &event, &error));

  std::string bad_version = payload;
  bad_version[1] = '\x7f';
  EXPECT_FALSE(decode_journal_event(bad_version, &event, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;

  std::string trailing = payload + "x";
  EXPECT_FALSE(decode_journal_event(trailing, &event, &error));
  EXPECT_NE(error.find("trailing bytes"), std::string::npos) << error;
}

TEST(JournalEvents, RandomBitFlipsNeverCrashDecode) {
  // Totality under hostile input: a flipped payload either decodes (the
  // flip landed on a don't-care or produced another valid encoding) or
  // is rejected with a located error — it never aborts or misbehaves
  // (the ASan crash-soak job runs this too).
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    std::string payload = rnd_event_payload(rng);
    const std::size_t byte = rng() % payload.size();
    payload[byte] ^= static_cast<char>(1 << (rng() % 8));
    JournalEvent event;
    std::string error;
    if (!decode_journal_event(payload, &event, &error)) {
      ASSERT_FALSE(error.empty());
      ASSERT_NE(error.find("byte"), std::string::npos) << error;
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot records.
// ---------------------------------------------------------------------------

TEST(SnapshotRecords, RoundTripSeeded) {
  Rng rng(12);
  for (int i = 0; i < 1000; ++i) {
    SnapshotRecord snapshot;
    snapshot.journal_cursor = rng();
    snapshot.state.assign(rng() % 200, '\0');
    for (char& c : snapshot.state) c = static_cast<char>(rng());
    const std::string payload = encode_snapshot_record(snapshot);
    SnapshotRecord back;
    std::string error;
    ASSERT_TRUE(decode_snapshot_record(payload, &back, &error)) << error;
    ASSERT_EQ(back.journal_cursor, snapshot.journal_cursor);
    ASSERT_EQ(back.state, snapshot.state);
    // Truncations of this payload are rejected too.
    const std::size_t cut = rng() % payload.size();
    EXPECT_FALSE(decode_snapshot_record(payload.substr(0, cut), &back, &error));
  }
}

TEST(SnapshotRecords, TrailingBytesRejected) {
  SnapshotRecord snapshot;
  snapshot.journal_cursor = 3;
  snapshot.state = "abc";
  std::string payload = encode_snapshot_record(snapshot) + "y";
  SnapshotRecord back;
  std::string error;
  EXPECT_FALSE(decode_snapshot_record(payload, &back, &error));
  EXPECT_NE(error.find("trailing bytes"), std::string::npos) << error;
}

TEST(SnapshotRecords, ChooseSnapshotPicksNewestCoveredCursor) {
  std::vector<std::string> payloads;
  for (const std::uint64_t cursor : {2u, 5u, 9u}) {
    SnapshotRecord s;
    s.journal_cursor = cursor;
    s.state = "state-" + std::to_string(cursor);
    payloads.push_back(encode_snapshot_record(s));
  }
  // An undecodable entry (torn snapshot write) is skipped, not fatal.
  payloads.insert(payloads.begin() + 1, "garbage");

  const auto all = choose_snapshot(payloads, 100);
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->journal_cursor, 9u);
  const auto mid = choose_snapshot(payloads, 8);
  ASSERT_TRUE(mid.has_value());
  EXPECT_EQ(mid->journal_cursor, 5u);
  EXPECT_EQ(mid->state, "state-5");
  EXPECT_FALSE(choose_snapshot(payloads, 1).has_value());
  EXPECT_FALSE(choose_snapshot({}, 100).has_value());
}

// ---------------------------------------------------------------------------
// The Journal class: resume verification and crash injection.
// ---------------------------------------------------------------------------

std::string temp_path(const char* name) {
  return testing::TempDir() + "/" + name;
}

TEST(Journal, ResumeVerifiesThenGoesLive) {
  const std::string path = temp_path("mrcp_journal_resume.journal");
  const std::string a = "record-a";
  const std::string b = "record-b";
  ASSERT_TRUE(io::write_text_file(path, io::frame_record(a)));

  Journal journal;
  std::string error;
  ASSERT_TRUE(journal.open_resume(path, io::frame_record(a).size(), {a},
                                  /*base_records=*/5, &error))
      << error;
  EXPECT_EQ(journal.records_appended(), 5u);
  EXPECT_EQ(journal.verify_pending(), 1u);
  // First append re-emits the on-disk record: verified, not rewritten.
  EXPECT_TRUE(journal.append(a));
  EXPECT_EQ(journal.verify_pending(), 0u);
  // Second append is live and lands in the file.
  EXPECT_TRUE(journal.append(b));
  EXPECT_EQ(journal.records_appended(), 7u);

  const io::FramedData data = io::read_framed_file(path);
  ASSERT_EQ(data.records.size(), 2u);
  EXPECT_EQ(data.records[0], a);
  EXPECT_EQ(data.records[1], b);
  std::remove(path.c_str());
}

TEST(Journal, ResumeDivergenceLatchesError) {
  const std::string path = temp_path("mrcp_journal_diverge.journal");
  ASSERT_TRUE(io::write_text_file(path, io::frame_record("expected")));

  Journal journal;
  std::string error;
  ASSERT_TRUE(journal.open_resume(path, io::frame_record("expected").size(),
                                  {"expected"}, 0, &error));
  EXPECT_FALSE(journal.append("something-else"));
  EXPECT_FALSE(journal.ok());
  EXPECT_NE(journal.error().find("resume divergence"), std::string::npos)
      << journal.error();
  // Latched: later appends fail too, nothing reaches the file.
  EXPECT_FALSE(journal.append("expected"));
  std::remove(path.c_str());
}

TEST(Journal, CrashInjectionPersistsExactlyN) {
  const std::string path = temp_path("mrcp_journal_crash.journal");
  Journal journal;
  std::string error;
  ASSERT_TRUE(journal.open(path, &error)) << error;
  journal.set_crash_after(2);
  EXPECT_TRUE(journal.append("one"));
  EXPECT_FALSE(journal.crashed());
  EXPECT_TRUE(journal.append("two"));
  EXPECT_FALSE(journal.crashed());
  // The third append is silently dropped — a dying process gets no
  // error either — and the crash flag trips for the driver to notice.
  EXPECT_TRUE(journal.append("three"));
  EXPECT_TRUE(journal.crashed());
  EXPECT_EQ(journal.records_appended(), 2u);

  const io::FramedData data = io::read_framed_file(path);
  ASSERT_EQ(data.records.size(), 2u);
  EXPECT_EQ(data.records[1], "two");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mrcp
