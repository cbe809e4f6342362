// Write-ahead event journal and snapshot codecs — the durability layer's
// schema (docs/crash_recovery.md).
//
// The journal is an append-only framed stream (common/io/record_io.h) of
// every scheduler-visible event: job submissions, deferral releases,
// completions, resource failures/repairs, every published plan, and
// park-retry wakeups. Alongside it, a snapshot file holds periodic full
// captures of the world state (resource manager + driver + fault
// injector), each tagged with its journal cursor — the number of journal
// records that existed when it was taken.
//
// Recovery = pick the newest snapshot whose cursor is covered by the
// journal's valid prefix, restore it, and re-run the deterministic
// scheduler from there. The journal suffix past the cursor is not
// replayed into effect — the solver re-derives it — but every record the
// resumed run emits is byte-compared against the on-disk suffix before
// new appends go live. A resumed run that finishes with a journal file
// byte-identical to the uninterrupted run's has therefore proved its
// plan stream identical too (tests/sim/crash_recovery_test.cpp).
//
// Every composite codec starts with a format-version byte; decoders are
// total (common/io/codec.h) and reject unknown versions, truncation and
// bit flips with a byte offset instead of aborting.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/io/codec.h"
#include "common/io/record_io.h"
#include "common/types.h"
#include "core/degradation.h"
#include "core/mrcp_rm.h"
#include "core/plan.h"
#include "mapreduce/job.h"

namespace mrcp {

// ---------------------------------------------------------------------------
// Per-type codecs. Encoders append to an io::Encoder; decoders read from
// an io::Decoder and latch any violation there (check dec.ok() / done()).
// ---------------------------------------------------------------------------

void encode_ticks(io::Encoder& enc, Ticks t);
Ticks decode_ticks(io::Decoder& dec);

void encode_task(io::Encoder& enc, const Task& task);
Task decode_task(io::Decoder& dec);

void encode_job(io::Encoder& enc, const Job& job);
Job decode_job(io::Decoder& dec);

void encode_planned_task(io::Encoder& enc, const PlannedTask& task);
PlannedTask decode_planned_task(io::Decoder& dec);

void encode_plan(io::Encoder& enc, const Plan& plan);
Plan decode_plan(io::Decoder& dec);

void encode_mrcp_stats(io::Encoder& enc, const MrcpStats& stats);
MrcpStats decode_mrcp_stats(io::Decoder& dec);

void encode_invocation_record(io::Encoder& enc, const InvocationRecord& rec);
InvocationRecord decode_invocation_record(io::Decoder& dec);

void encode_ledger(io::Encoder& enc, const DegradationLedger& ledger);
DegradationLedger decode_ledger(io::Decoder& dec);

// ---------------------------------------------------------------------------
// Journal events.
// ---------------------------------------------------------------------------

enum class JournalEventType : std::uint8_t {
  kSubmit = 1,        ///< job arrived at the RM
  kRelease = 2,       ///< deferred job released into the model
  kCompletion = 3,    ///< job fully completed (swept by the RM)
  kResourceDown = 4,  ///< resource failed
  kResourceUp = 5,    ///< resource repaired
  kPlanPublished = 6, ///< full plan published by reschedule()
  kParkRetry = 7,     ///< park-retry wakeup armed (retry time + parked set)
};

const char* journal_event_type_name(JournalEventType type);

/// Decoded view of one journal record; only the fields of its type are
/// meaningful.
struct JournalEvent {
  JournalEventType type = JournalEventType::kSubmit;
  Time time;                   ///< event time (all types)
  Job job;                     ///< kSubmit
  JobId job_id = kNoJob;       ///< kRelease / kCompletion
  ResourceId resource = kNoResource;  ///< kResourceDown / kResourceUp
  Plan plan;                   ///< kPlanPublished
  std::vector<JobId> parked;   ///< kParkRetry
};

std::string encode_submit_event(const Job& job, Time now);
std::string encode_release_event(JobId id, Time now);
std::string encode_completion_event(JobId id, Time completed_at);
std::string encode_resource_down_event(ResourceId resource, Time now);
std::string encode_resource_up_event(ResourceId resource, Time now);
std::string encode_plan_event(const Plan& plan);
std::string encode_park_retry_event(Time retry_at,
                                    const std::set<JobId>& parked);

/// Decode one journal record payload. False (with `*error` set, including
/// the byte offset) on truncation, bit flips, unknown types or versions.
bool decode_journal_event(std::string_view payload, JournalEvent* out,
                          std::string* error);

// ---------------------------------------------------------------------------
// Snapshot records.
// ---------------------------------------------------------------------------

/// One snapshot: an opaque world-state blob plus the journal cursor at
/// capture time. Snapshots are appended to their own framed file; the
/// torn-tail rules apply there too, so a crash mid-snapshot simply loses
/// the last record and recovery falls back to an earlier one.
struct SnapshotRecord {
  std::uint64_t journal_cursor = 0;  ///< journal records existing at capture
  std::string state;                 ///< encoded world state (sim driver)
};

std::string encode_snapshot_record(const SnapshotRecord& snapshot);
bool decode_snapshot_record(std::string_view payload, SnapshotRecord* out,
                            std::string* error);

/// Pick the newest decodable snapshot whose cursor is <= `cursor_limit`
/// (the journal's valid record count) — a snapshot past the journal's
/// valid prefix cannot be verified and is skipped. nullopt when none
/// qualifies; recovery then restarts from scratch (cold restore).
std::optional<SnapshotRecord> choose_snapshot(
    const std::vector<std::string>& payloads, std::uint64_t cursor_limit);

// ---------------------------------------------------------------------------
// The write-ahead journal.
// ---------------------------------------------------------------------------

/// Append-only WAL with a resume-time verification mode.
///
/// Fresh runs open() and append() one framed record per event. A resumed
/// run open_resume()s instead: the file is physically truncated to its
/// valid prefix and the records past the chosen snapshot's cursor become
/// an *expected* queue — each append() is byte-compared against it (and
/// not rewritten; the bytes are already on disk) until the queue drains,
/// after which appends go live. A mismatch latches an error and fails
/// the append: the resumed run diverged from the original, which the
/// crash-injection harness treats as fatal.
class Journal {
 public:
  Journal() = default;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Start a fresh journal at `path`, truncating any existing file.
  bool open(const std::string& path, std::string* error);

  /// Resume at `path`: truncate the file to `valid_bytes` (dropping a
  /// torn tail), arm verification against `expected` (the valid records
  /// after the snapshot's cursor `base_records`), and reopen for append.
  bool open_resume(const std::string& path, std::uint64_t valid_bytes,
                   std::vector<std::string> expected,
                   std::uint64_t base_records, std::string* error);

  /// Append one event record (or verify it while resuming). False on a
  /// verification mismatch or I/O error — see error().
  bool append(std::string_view payload);

  /// Total records in the journal's history, counting both the resumed
  /// base and appends since — the snapshot cursor, and the coordinate
  /// the crash-injection harness counts crash points in.
  std::uint64_t records_appended() const { return base_records_ + appended_; }

  /// Records still awaiting verification (resume mode only).
  std::size_t verify_pending() const { return expected_.size() - verify_pos_; }

  /// Crash injection (the recovery harness): persist exactly
  /// `total_records` records, then silently drop every further append —
  /// exactly what a process death between two writes leaves on disk.
  /// crashed() turns true at the first dropped append; the sim driver
  /// abandons the run at the next event boundary. 0 = off.
  void set_crash_after(std::uint64_t total_records) {
    crash_after_ = total_records;
  }
  bool crashed() const { return crashed_; }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  io::FileRecordWriter writer_;
  std::vector<std::string> expected_;
  std::size_t verify_pos_ = 0;
  std::uint64_t base_records_ = 0;
  std::uint64_t appended_ = 0;
  std::uint64_t crash_after_ = 0;
  bool crashed_ = false;
  std::string error_;
};

}  // namespace mrcp
