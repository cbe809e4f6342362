#include "core/journal.h"

#include <limits>
#include <utility>

#include "common/io/file_io.h"

namespace mrcp {

namespace {

// All composite codecs share one format version; bump it (and branch in
// the decoders) when a field list changes.
// v2: tasks carry placement constraints (candidates, racks, affinity).
// v3: stats drop the model-cache and warm-start counters, invocation
//     records drop model_cache_hit (both features were removed).
// v4: plans list their parked (job, task) pairs instead of counting them.
// v5: invocation outcomes lose kCpRetry (the retry rungs were removed),
//     which shifts every later outcome value down by one.
// v6: stats drop jobs_backpressured (arrival backpressure was removed).
constexpr std::uint8_t kFormatVersion = 6;

void check_version(io::Decoder& dec, const char* what) {
  const std::uint8_t version = dec.u8();
  if (dec.ok() && version != kFormatVersion) {
    dec.fail(std::string("unsupported ") + what + " version " +
             std::to_string(version));
  }
}

int decode_int32(io::Decoder& dec, const char* what) {
  const std::int64_t v = dec.i64();
  if (dec.ok() && (v < std::numeric_limits<std::int32_t>::min() ||
                   v > std::numeric_limits<std::int32_t>::max())) {
    dec.fail(std::string(what) + " out of int32 range");
    return 0;
  }
  return static_cast<int>(v);
}

TaskType decode_task_type(io::Decoder& dec) {
  const std::uint8_t raw = dec.u8();
  if (dec.ok() && raw > static_cast<std::uint8_t>(TaskType::kReduce)) {
    dec.fail("invalid task type " + std::to_string(raw));
    return TaskType::kMap;
  }
  return static_cast<TaskType>(raw);
}

}  // namespace

void encode_ticks(io::Encoder& enc, Ticks t) { enc.ticks(t); }

Ticks decode_ticks(io::Decoder& dec) { return dec.ticks(); }

void encode_task(io::Encoder& enc, const Task& task) {
  enc.u8(static_cast<std::uint8_t>(task.type));
  enc.ticks(task.exec_time);
  enc.i64(task.res_req);
  enc.i64(task.net_demand);
  enc.u32(static_cast<std::uint32_t>(task.candidates.size()));
  for (const ResourceId r : task.candidates) enc.i64(r);
  enc.u32(static_cast<std::uint32_t>(task.racks.size()));
  for (const int rack : task.racks) enc.i64(rack);
  enc.i64(task.affinity_group);
}

Task decode_task(io::Decoder& dec) {
  Task task;
  task.type = decode_task_type(dec);
  task.exec_time = dec.ticks();
  task.res_req = decode_int32(dec, "task res_req");
  task.net_demand = decode_int32(dec, "task net_demand");
  const std::uint32_t num_candidates = dec.u32();
  for (std::uint32_t i = 0; i < num_candidates && dec.ok(); ++i) {
    task.candidates.push_back(decode_int32(dec, "task candidate"));
  }
  const std::uint32_t num_racks = dec.u32();
  for (std::uint32_t i = 0; i < num_racks && dec.ok(); ++i) {
    task.racks.push_back(decode_int32(dec, "task rack"));
  }
  task.affinity_group = decode_int32(dec, "task affinity group");
  return task;
}

void encode_job(io::Encoder& enc, const Job& job) {
  enc.u8(kFormatVersion);
  enc.i64(job.id);
  enc.ticks(job.arrival_time);
  enc.ticks(job.earliest_start);
  enc.ticks(job.deadline);
  enc.u32(static_cast<std::uint32_t>(job.map_tasks.size()));
  for (const Task& task : job.map_tasks) encode_task(enc, task);
  enc.u32(static_cast<std::uint32_t>(job.reduce_tasks.size()));
  for (const Task& task : job.reduce_tasks) encode_task(enc, task);
  enc.u32(static_cast<std::uint32_t>(job.precedences.size()));
  for (const auto& [before, after] : job.precedences) {
    enc.i64(before);
    enc.i64(after);
  }
}

Job decode_job(io::Decoder& dec) {
  Job job;
  check_version(dec, "job");
  job.id = decode_int32(dec, "job id");
  job.arrival_time = dec.ticks();
  job.earliest_start = dec.ticks();
  job.deadline = dec.ticks();
  const std::uint32_t num_maps = dec.u32();
  for (std::uint32_t i = 0; i < num_maps && dec.ok(); ++i) {
    job.map_tasks.push_back(decode_task(dec));
  }
  const std::uint32_t num_reduces = dec.u32();
  for (std::uint32_t i = 0; i < num_reduces && dec.ok(); ++i) {
    job.reduce_tasks.push_back(decode_task(dec));
  }
  const std::uint32_t num_precedences = dec.u32();
  for (std::uint32_t i = 0; i < num_precedences && dec.ok(); ++i) {
    const int before = decode_int32(dec, "precedence");
    const int after = decode_int32(dec, "precedence");
    job.precedences.emplace_back(before, after);
  }
  return job;
}

void encode_planned_task(io::Encoder& enc, const PlannedTask& task) {
  enc.i64(task.job);
  enc.i64(task.task_index);
  enc.u8(static_cast<std::uint8_t>(task.type));
  enc.i64(task.resource);
  enc.ticks(task.start);
  enc.ticks(task.end);
  enc.boolean(task.started);
}

PlannedTask decode_planned_task(io::Decoder& dec) {
  PlannedTask task;
  task.job = decode_int32(dec, "planned-task job");
  task.task_index = decode_int32(dec, "planned-task index");
  task.type = decode_task_type(dec);
  task.resource = decode_int32(dec, "planned-task resource");
  task.start = dec.ticks();
  task.end = dec.ticks();
  task.started = dec.boolean();
  return task;
}

void encode_plan(io::Encoder& enc, const Plan& plan) {
  enc.u8(kFormatVersion);
  enc.u64(plan.epoch);
  enc.ticks(plan.planned_at);
  enc.u32(static_cast<std::uint32_t>(plan.tasks.size()));
  for (const PlannedTask& task : plan.tasks) encode_planned_task(enc, task);
  enc.u32(static_cast<std::uint32_t>(plan.parked.size()));
  for (const auto& [job, task_index] : plan.parked) {
    enc.i64(job);
    enc.i64(task_index);
  }
}

Plan decode_plan(io::Decoder& dec) {
  Plan plan;
  check_version(dec, "plan");
  plan.epoch = dec.u64();
  plan.planned_at = dec.ticks();
  const std::uint32_t num_tasks = dec.u32();
  for (std::uint32_t i = 0; i < num_tasks && dec.ok(); ++i) {
    plan.tasks.push_back(decode_planned_task(dec));
  }
  const std::uint32_t num_parked = dec.u32();
  for (std::uint32_t i = 0; i < num_parked && dec.ok(); ++i) {
    const JobId job = decode_int32(dec, "parked-task job");
    const int task_index = decode_int32(dec, "parked-task index");
    plan.parked.emplace_back(job, task_index);
  }
  return plan;
}

void encode_mrcp_stats(io::Encoder& enc, const MrcpStats& stats) {
  enc.u8(kFormatVersion);
  enc.u64(stats.invocations);
  enc.u64(stats.jobs_submitted);
  enc.u64(stats.jobs_completed);
  enc.u64(stats.jobs_completed_late);
  enc.f64(stats.total_sched_seconds);
  enc.i64(stats.solver_decisions);
  enc.i64(stats.solver_fails);
  enc.u64(stats.max_live_tasks);
  enc.u64(stats.resource_down_events);
  enc.u64(stats.resource_up_events);
  enc.u64(stats.tasks_reset_by_failure);
  enc.u64(stats.solve_attempts);
  enc.u64(stats.fallback_plans);
  enc.u64(stats.jobs_parked);
  enc.f64(stats.solve_wall_seconds);
  enc.u64(stats.dirty_promotions);
}

MrcpStats decode_mrcp_stats(io::Decoder& dec) {
  MrcpStats stats;
  check_version(dec, "stats");
  stats.invocations = dec.u64();
  stats.jobs_submitted = dec.u64();
  stats.jobs_completed = dec.u64();
  stats.jobs_completed_late = dec.u64();
  stats.total_sched_seconds = dec.f64();
  stats.solver_decisions = dec.i64();
  stats.solver_fails = dec.i64();
  stats.max_live_tasks = dec.u64();
  stats.resource_down_events = dec.u64();
  stats.resource_up_events = dec.u64();
  stats.tasks_reset_by_failure = dec.u64();
  stats.solve_attempts = dec.u64();
  stats.fallback_plans = dec.u64();
  stats.jobs_parked = dec.u64();
  stats.solve_wall_seconds = dec.f64();
  stats.dirty_promotions = dec.u64();
  return stats;
}

void encode_invocation_record(io::Encoder& enc, const InvocationRecord& rec) {
  enc.u8(kFormatVersion);
  enc.u64(rec.epoch);
  enc.ticks(rec.sim_time);
  enc.i64(rec.attempts);
  enc.u8(static_cast<std::uint8_t>(rec.last_status));
  enc.u8(static_cast<std::uint8_t>(rec.outcome));
  enc.f64(rec.solve_wall_seconds);
  enc.u64(rec.live_tasks);
  enc.u64(rec.parked_jobs);
  enc.u64(rec.dirty_jobs);
  enc.u64(rec.frozen_tasks);
}

InvocationRecord decode_invocation_record(io::Decoder& dec) {
  InvocationRecord rec;
  check_version(dec, "invocation record");
  rec.epoch = dec.u64();
  rec.sim_time = dec.ticks();
  rec.attempts = decode_int32(dec, "invocation attempts");
  const std::uint8_t status = dec.u8();
  if (dec.ok() &&
      status > static_cast<std::uint8_t>(cp::SolveStatus::kInfeasible)) {
    dec.fail("invalid solve status " + std::to_string(status));
  }
  rec.last_status = static_cast<cp::SolveStatus>(status);
  const std::uint8_t outcome = dec.u8();
  if (dec.ok() &&
      outcome > static_cast<std::uint8_t>(InvocationOutcome::kIdle)) {
    dec.fail("invalid invocation outcome " + std::to_string(outcome));
  }
  rec.outcome = static_cast<InvocationOutcome>(outcome);
  rec.solve_wall_seconds = dec.f64();
  rec.live_tasks = static_cast<std::size_t>(dec.u64());
  rec.parked_jobs = static_cast<std::size_t>(dec.u64());
  rec.dirty_jobs = static_cast<std::size_t>(dec.u64());
  rec.frozen_tasks = static_cast<std::size_t>(dec.u64());
  return rec;
}

void encode_ledger(io::Encoder& enc, const DegradationLedger& ledger) {
  enc.u8(kFormatVersion);
  enc.u32(static_cast<std::uint32_t>(ledger.records().size()));
  for (const InvocationRecord& rec : ledger.records()) {
    encode_invocation_record(enc, rec);
  }
}

DegradationLedger decode_ledger(io::Decoder& dec) {
  // Rebuilt by replaying record(), which regenerates the aggregate
  // counters exactly (same doubles added in the same order).
  DegradationLedger ledger;
  check_version(dec, "ledger");
  const std::uint32_t count = dec.u32();
  for (std::uint32_t i = 0; i < count && dec.ok(); ++i) {
    ledger.record(decode_invocation_record(dec));
  }
  return ledger;
}

// ---------------------------------------------------------------------------
// Journal events.
// ---------------------------------------------------------------------------

const char* journal_event_type_name(JournalEventType type) {
  switch (type) {
    case JournalEventType::kSubmit:
      return "submit";
    case JournalEventType::kRelease:
      return "release";
    case JournalEventType::kCompletion:
      return "completion";
    case JournalEventType::kResourceDown:
      return "resource-down";
    case JournalEventType::kResourceUp:
      return "resource-up";
    case JournalEventType::kPlanPublished:
      return "plan-published";
    case JournalEventType::kParkRetry:
      return "park-retry";
  }
  return "unknown";
}

namespace {

io::Encoder event_header(JournalEventType type) {
  io::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(type));
  enc.u8(kFormatVersion);
  return enc;
}

}  // namespace

std::string encode_submit_event(const Job& job, Time now) {
  io::Encoder enc = event_header(JournalEventType::kSubmit);
  enc.ticks(now);
  encode_job(enc, job);
  return enc.take();
}

std::string encode_release_event(JobId id, Time now) {
  io::Encoder enc = event_header(JournalEventType::kRelease);
  enc.ticks(now);
  enc.i64(id);
  return enc.take();
}

std::string encode_completion_event(JobId id, Time completed_at) {
  io::Encoder enc = event_header(JournalEventType::kCompletion);
  enc.ticks(completed_at);
  enc.i64(id);
  return enc.take();
}

std::string encode_resource_down_event(ResourceId resource, Time now) {
  io::Encoder enc = event_header(JournalEventType::kResourceDown);
  enc.ticks(now);
  enc.i64(resource);
  return enc.take();
}

std::string encode_resource_up_event(ResourceId resource, Time now) {
  io::Encoder enc = event_header(JournalEventType::kResourceUp);
  enc.ticks(now);
  enc.i64(resource);
  return enc.take();
}

std::string encode_plan_event(const Plan& plan) {
  io::Encoder enc = event_header(JournalEventType::kPlanPublished);
  enc.ticks(plan.planned_at);
  encode_plan(enc, plan);
  return enc.take();
}

std::string encode_park_retry_event(Time retry_at,
                                    const std::set<JobId>& parked) {
  io::Encoder enc = event_header(JournalEventType::kParkRetry);
  enc.ticks(retry_at);
  enc.u32(static_cast<std::uint32_t>(parked.size()));
  for (const JobId id : parked) enc.i64(id);
  return enc.take();
}

bool decode_journal_event(std::string_view payload, JournalEvent* out,
                          std::string* error) {
  io::Decoder dec(payload);
  const std::uint8_t raw_type = dec.u8();
  if (dec.ok() &&
      (raw_type < static_cast<std::uint8_t>(JournalEventType::kSubmit) ||
       raw_type > static_cast<std::uint8_t>(JournalEventType::kParkRetry))) {
    dec.fail("unknown journal event type " + std::to_string(raw_type));
  }
  check_version(dec, "journal event");
  JournalEvent event;
  if (dec.ok()) {
    event.type = static_cast<JournalEventType>(raw_type);
    event.time = dec.ticks();
    switch (event.type) {
      case JournalEventType::kSubmit:
        event.job = decode_job(dec);
        break;
      case JournalEventType::kRelease:
      case JournalEventType::kCompletion:
        event.job_id = decode_int32(dec, "event job id");
        break;
      case JournalEventType::kResourceDown:
      case JournalEventType::kResourceUp:
        event.resource = decode_int32(dec, "event resource");
        break;
      case JournalEventType::kPlanPublished:
        event.plan = decode_plan(dec);
        break;
      case JournalEventType::kParkRetry: {
        const std::uint32_t count = dec.u32();
        for (std::uint32_t i = 0; i < count && dec.ok(); ++i) {
          event.parked.push_back(decode_int32(dec, "parked job id"));
        }
        break;
      }
    }
  }
  if (!dec.ok()) {
    if (error != nullptr) *error = dec.error();
    return false;
  }
  if (!dec.done()) {
    if (error != nullptr) {
      *error = "trailing bytes after journal event at byte " +
               std::to_string(dec.offset());
    }
    return false;
  }
  *out = std::move(event);
  return true;
}

// ---------------------------------------------------------------------------
// Snapshot records.
// ---------------------------------------------------------------------------

std::string encode_snapshot_record(const SnapshotRecord& snapshot) {
  io::Encoder enc;
  enc.u8(kFormatVersion);
  enc.u64(snapshot.journal_cursor);
  enc.bytes(snapshot.state);
  return enc.take();
}

bool decode_snapshot_record(std::string_view payload, SnapshotRecord* out,
                            std::string* error) {
  io::Decoder dec(payload);
  check_version(dec, "snapshot");
  SnapshotRecord snapshot;
  snapshot.journal_cursor = dec.u64();
  snapshot.state = dec.bytes();
  if (!dec.done()) {
    if (error != nullptr) {
      *error = dec.ok() ? "trailing bytes after snapshot record" : dec.error();
    }
    return false;
  }
  *out = std::move(snapshot);
  return true;
}

std::optional<SnapshotRecord> choose_snapshot(
    const std::vector<std::string>& payloads, std::uint64_t cursor_limit) {
  std::optional<SnapshotRecord> best;
  for (const std::string& payload : payloads) {
    SnapshotRecord snapshot;
    if (!decode_snapshot_record(payload, &snapshot, nullptr)) continue;
    if (snapshot.journal_cursor > cursor_limit) continue;
    // Snapshots are appended in capture order, so the last qualifying
    // record is the newest restorable state.
    best = std::move(snapshot);
  }
  return best;
}

// ---------------------------------------------------------------------------
// Journal.
// ---------------------------------------------------------------------------

bool Journal::open(const std::string& path, std::string* error) {
  if (!writer_.open(path, /*truncate=*/true)) {
    if (error != nullptr) *error = "cannot open journal for writing: " + path;
    return false;
  }
  return true;
}

bool Journal::open_resume(const std::string& path, std::uint64_t valid_bytes,
                          std::vector<std::string> expected,
                          std::uint64_t base_records, std::string* error) {
  if (io::file_exists(path) && !io::truncate_file(path, valid_bytes)) {
    if (error != nullptr) {
      *error = "cannot truncate journal to " + std::to_string(valid_bytes) +
               " bytes: " + path;
    }
    return false;
  }
  if (!writer_.open(path, /*truncate=*/false)) {
    if (error != nullptr) *error = "cannot reopen journal for append: " + path;
    return false;
  }
  expected_ = std::move(expected);
  verify_pos_ = 0;
  base_records_ = base_records;
  appended_ = 0;
  return true;
}

bool Journal::append(std::string_view payload) {
  if (!ok()) return false;
  if (crash_after_ != 0 && records_appended() >= crash_after_) {
    // Injected crash: the record is dropped as if the process died
    // before this write. Reported as success — a dying process gets no
    // error either; the driver notices crashed() and stops.
    crashed_ = true;
    return true;
  }
  if (verify_pos_ < expected_.size()) {
    // Resume verification: this record already exists on disk; the
    // re-executed run must reproduce it byte for byte.
    const std::string& want = expected_[verify_pos_];
    if (payload != want) {
      error_ = "resume divergence at journal record " +
               std::to_string(records_appended()) + ": re-emitted " +
               std::to_string(payload.size()) + " bytes, journal holds " +
               std::to_string(want.size());
      return false;
    }
    ++verify_pos_;
    ++appended_;
    return true;
  }
  if (!writer_.append(payload)) {
    error_ = "journal append failed (I/O error)";
    return false;
  }
  ++appended_;
  return true;
}

}  // namespace mrcp
