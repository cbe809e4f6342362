// Crash-tolerant MRCP-RM simulation driver (docs/crash_recovery.md).
//
// simulate_mrcp lives here as a driver class so that *all* per-run state
// — the per-task execution matrix, pending DES events, metric
// accumulators, the RM and the fault injector — can be captured into a
// snapshot and rebuilt from one. Durability is strictly opt-in: with
// DurabilityOptions off the driver takes the exact pre-durability code
// path (plain des.run(), no journal writes) and produces byte-identical
// output.
//
// With a journal attached, the RM appends one record per scheduler-
// visible event; the driver runs the DES one event at a time and captures
// a full world snapshot whenever the journal record count crosses a
// multiple of snapshot_every. Because the capture points are a pure
// function of the record count, an uninterrupted run and a crash/restore
// run hit the same safe points.
//
// Recovery re-schedules every captured pending event — arrivals, task
// completions, the deferral wakeup, injector transitions — in ascending
// *original* DES sequence order. Fresh sequence numbers are assigned in
// that order, so every same-tick tie-break resolves exactly as in the
// uninterrupted run; from there determinism of the RM (seeded solver,
// epoch-derived seeds) closes the argument. The journal records past the
// snapshot cursor are not replayed into effect: the resumed run re-emits
// them and the Journal byte-compares each against the on-disk suffix.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/io/codec.h"
#include "common/io/file_io.h"
#include "common/io/record_io.h"
#include "common/stopwatch.h"
#include "common/types.h"
#include "core/journal.h"
#include "core/mrcp_rm.h"
#include "des/simulation.h"
#include "sim/cluster_sim.h"
#include "sim/fault_injector.h"
#include "sim/sim_internal.h"

namespace mrcp::sim {

namespace {

constexpr std::uint8_t kWorldStateVersion = 1;

void encode_task_list(io::Encoder& enc, const std::vector<ExecutedTask>& v) {
  enc.u32(static_cast<std::uint32_t>(v.size()));
  for (const ExecutedTask& et : v) {
    enc.i64(et.job);
    enc.i64(et.task_index);
    enc.i64(et.resource);
    enc.ticks(et.start);
    enc.ticks(et.end);
  }
}

std::vector<ExecutedTask> decode_task_list(io::Decoder& dec) {
  std::vector<ExecutedTask> v;
  const std::uint32_t n = dec.u32();
  for (std::uint32_t i = 0; i < n && dec.ok(); ++i) {
    ExecutedTask et;
    et.job = static_cast<JobId>(dec.i64());
    et.task_index = static_cast<int>(dec.i64());
    et.resource = static_cast<ResourceId>(dec.i64());
    et.start = dec.ticks();
    et.end = dec.ticks();
    v.push_back(et);
  }
  return v;
}

/// One captured not-yet-fired event, tagged with its original DES
/// sequence number. The resume path re-schedules all categories merged
/// in ascending seq order, which reproduces every same-tick tie-break of
/// the uninterrupted run.
struct PendingEvent {
  enum class Kind : std::uint8_t {
    kArrival,
    kTaskEnd,
    kDeferralWakeup,
    kInjector,
  };
  std::uint64_t seq = 0;
  Kind kind = Kind::kArrival;
  Time time = kTimeZero;
  std::size_t job = 0;         ///< kArrival / kTaskEnd (dense job id)
  std::size_t task_index = 0;  ///< kTaskEnd
  FaultInjector::PendingTransition transition;  ///< kInjector
};

class MrcpSimDriver {
 public:
  MrcpSimDriver(const Workload& w, const MrcpConfig& config,
                const SimOptions& options)
      : w_(w),
        options_(options),
        rm_(w.cluster, config),
        injector_(w.cluster.size(), options.faults, cluster_racks(w.cluster)) {
    metrics_.records = internal::make_records(w);
    tasks_.resize(w.jobs.size());
    remaining_.resize(w.jobs.size());
    jobs_by_id_.resize(w.jobs.size(), nullptr);
    arrival_events_.resize(w.jobs.size());
    std::size_t total_tasks = 0;
    for (const Job& job : w.jobs) {
      const auto ji = static_cast<std::size_t>(job.id);
      tasks_[ji].resize(job.num_tasks());
      remaining_[ji] = job.num_tasks();
      jobs_by_id_[ji] = &job;
      total_tasks += job.num_tasks();
    }
    executed_.reserve(total_tasks);
    jobs_left_ = w.jobs.size();
  }

  void set_straggler_tasks(std::size_t n) {
    metrics_.failure.straggler_tasks = n;
  }

  SimMetrics run() {
    const DurabilityOptions& dur = options_.durability;
    if (!dur.enabled()) {
      // The exact pre-durability code path: no journal, no snapshots, no
      // per-event bookkeeping.
      start_fresh();
      des_.run();
      return finish(/*crashed=*/false);
    }
    journal_.set_crash_after(dur.crash_after_records);
    bool resumed = false;
    if (dur.restore) {
      resumed = resume_from_disk();
    } else {
      std::string error;
      MRCP_CHECK_MSG(journal_.open(dur.journal_path(), &error), error.c_str());
      MRCP_CHECK_MSG(
          snapshot_writer_.open(dur.snapshot_path(), /*truncate=*/true),
          "cannot open snapshot file for writing");
      next_snapshot_at_ = dur.snapshot_every;
    }
    rm_.attach_journal(&journal_);
    if (!resumed) start_fresh();
    bool crashed = false;
    while (true) {
      if (journal_.crashed()) {
        // The injected crash point was hit inside the last event; the
        // "process" is dead — abandon the run with whatever reached disk.
        crashed = true;
        break;
      }
      if (!des_.step()) break;
      maybe_snapshot();
    }
    return finish(crashed);
  }

 private:
  // Per-task driver state.
  struct TaskState {
    des::EventHandle end_event;
    bool started = false;
    ResourceId resource = kNoResource;
    Time start = kNoTime;
    Time end = kNoTime;
  };

  void start_fresh() {
    injector_.start(
        des_, [this](ResourceId r, Time t) { on_resource_down(r, t); },
        [this](ResourceId r, Time t) { on_resource_up(r, t); });
    for (const Job& job : w_.jobs) schedule_arrival(job);
  }

  void schedule_arrival(const Job& job) {
    arrival_events_[static_cast<std::size_t>(job.id)] =
        des_.schedule_at(job.arrival_time, [this, &job] {
          rm_.submit(job, des_.now());
          replan(des_.now());
        });
  }

  /// Schedule the completion event of (job, task). A committed task's
  /// event just completes it; an uncommitted ("future") task's event
  /// first marks the implicit start — the task began at its planned
  /// start time without a replan touching it since.
  void schedule_task_end(JobId job_id, int task_index, Time end,
                         bool committed) {
    TaskState& ts = task_state(job_id, task_index);
    if (committed) {
      ts.end_event = des_.schedule_at(
          end, [this, job_id, task_index] { on_task_end(job_id, task_index); });
      return;
    }
    ts.end_event = des_.schedule_at(end, [this, job_id, task_index] {
      // The task implicitly started at its planned start; mark and
      // complete.
      task_state(job_id, task_index).started = true;
      on_task_end(job_id, task_index);
    });
  }

  void schedule_deferral_wakeup(Time at) {
    deferral_wakeup_ = des_.schedule_at(at, [this] {
      deferral_wakeup_at_ = kNoTime;
      replan(des_.now());
    });
  }

  TaskState& task_state(JobId job_id, int task_index) {
    return tasks_[static_cast<std::size_t>(job_id)]
                 [static_cast<std::size_t>(task_index)];
  }

  /// One RM invocation at `now`: publish its plan to the executor, re-arm
  /// the deferral wakeup, then check that the run can still finish.
  void replan(Time now) {
    apply_plan(rm_.reschedule(now));
    update_deferral_wakeup();
    check_liveness(now);
  }

  void on_task_end(JobId job_id, int task_index) {
    const auto ji = static_cast<std::size_t>(job_id);
    const TaskState& ts = task_state(job_id, task_index);
    MRCP_CHECK(ts.started);
    MRCP_CHECK(des_.now() == ts.end);
    executed_.push_back(
        ExecutedTask{job_id, task_index, ts.resource, ts.start, ts.end});
    MRCP_CHECK(remaining_[ji] > 0);
    if (--remaining_[ji] == 0) {
      JobRecord& record = metrics_.records[ji];
      finish_job_record(record, des_.now());
      if (record.late && record.failure_affected) {
        ++metrics_.failure.jobs_late_failure_affected;
      }
      MRCP_CHECK(jobs_left_ > 0);
      // Once the workload drains, stop injecting faults so the event
      // list can empty.
      if (--jobs_left_ == 0) injector_.stop(des_);
    }
  }

  void apply_plan(const Plan& plan) {
    // A degraded plan lists the unstarted tasks of parked jobs (no
    // currently-up resource can host them) apart from its assignments.
    // An end event still pending from a previous epoch for such a task is
    // stale — cancel it and forget the placement; the RM re-plans the
    // task once capacity returns. Nothing is inferred from absence: a
    // task the RM swept as completed this tick is absent too, and its end
    // event must still fire.
    for (const auto& [job_id, task_index] : plan.parked) {
      TaskState& ts = task_state(job_id, task_index);
      MRCP_CHECK_MSG(!ts.started,
                     describe_task("RM parked a task that has started",
                                   job_id, task_index)
                         .c_str());
      if (!ts.end_event.pending()) continue;
      des_.cancel(ts.end_event);
      ts = TaskState{};
    }
    for (const PlannedTask& pt : plan.tasks) {
      TaskState& ts = task_state(pt.job, pt.task_index);
      if (ts.started) {
        // Running (or finished-this-tick) tasks must keep their placement.
        MRCP_CHECK_MSG(ts.resource == pt.resource && ts.start == pt.start &&
                           ts.end == pt.end,
                       "RM moved a started task");
        continue;
      }
      if (pt.started) {
        // Starts now (or started at this very tick): commit it.
        ts.started = true;
        ts.resource = pt.resource;
        ts.start = pt.start;
        ts.end = pt.end;
        if (ts.end_event.pending()) des_.cancel(ts.end_event);
        schedule_task_end(pt.job, pt.task_index, pt.end, /*committed=*/true);
        continue;
      }
      // Future task: (re)schedule its completion event; a later replan may
      // cancel it again.
      if (ts.end_event.pending()) des_.cancel(ts.end_event);
      ts.resource = pt.resource;
      ts.start = pt.start;
      ts.end = pt.end;
      schedule_task_end(pt.job, pt.task_index, pt.end, /*committed=*/false);
    }
  }

  void update_deferral_wakeup() {
    const Time next = rm_.next_deferred_release();
    if (next == deferral_wakeup_at_) return;
    if (deferral_wakeup_.pending()) des_.cancel(deferral_wakeup_);
    deferral_wakeup_at_ = next;
    if (next == kNoTime) return;
    const Time at = std::max(next, des_.now());
    schedule_deferral_wakeup(at);
  }

  void on_resource_down(ResourceId r, Time t) {
    // The RM resets every assignment on r that has not ended by t (tasks
    // ending exactly at t completed normally). Of those, kill the
    // attempts that had begun: an interval that started before t, or one
    // committed at this very tick (started flag). A merely *planned* task
    // starting at t has not begun — its end event stays until the replan
    // below moves it.
    for (const PlannedTask& pt : rm_.handle_resource_down(r, t)) {
      TaskState& ts = task_state(pt.job, pt.task_index);
      MRCP_CHECK_MSG(ts.end_event.pending() && ts.resource == pt.resource &&
                         ts.start == pt.start && ts.end == pt.end,
                     (describe_task("RM reset an assignment the executor "
                                    "does not hold",
                                    pt.job, pt.task_index) +
                      "; RM: resource " + std::to_string(pt.resource) +
                      ", start " + std::to_string(pt.start.count()) +
                      ", end " + std::to_string(pt.end.count()))
                         .c_str());
      const bool begun = pt.start < t || (ts.started && pt.start == t);
      if (!begun) continue;
      des_.cancel(ts.end_event);
      metrics_.killed.push_back(
          ExecutedTask{pt.job, pt.task_index, r, pt.start, t});
      ++metrics_.failure.tasks_killed;
      metrics_.failure.wasted_ticks += t - pt.start;
      metrics_.records[static_cast<std::size_t>(pt.job)].failure_affected =
          true;
      ts = TaskState{};
    }
    replan(t);
  }

  void on_resource_up(ResourceId r, Time t) {
    rm_.handle_resource_up(r, t);
    replan(t);
  }

  /// Liveness tripwire. Once every job is submitted and the RM holds no
  /// live job, each unfinished task must have its end event due at this
  /// very tick: the RM sweeps a task as completed at `end <= now`, before
  /// the tick's remaining end events fire. A task with neither an
  /// execution nor such an event can never complete, and the fault
  /// injector — which stops only once the workload drains — would keep
  /// the run going forever.
  void check_liveness(Time now) {
    if (jobs_left_ == 0 || rm_.live_jobs() != 0 ||
        rm_.stats().jobs_submitted != w_.jobs.size()) {
      return;
    }
    for (std::size_t ji = 0; ji < remaining_.size(); ++ji) {
      if (remaining_[ji] == 0) continue;
      for (std::size_t ti = 0; ti < tasks_[ji].size(); ++ti) {
        const TaskState& ts = tasks_[ji][ti];
        const bool executed = ts.started && !ts.end_event.pending();
        const bool due_now = ts.end_event.pending() && ts.end == now;
        MRCP_CHECK_MSG(
            executed || due_now,
            describe_task("liveness: the RM holds no live job, but this task "
                          "has neither executed nor an end event due now",
                          static_cast<JobId>(ji), static_cast<int>(ti))
                .c_str());
      }
    }
  }

  /// A check message that locates (job, task) and the executor's view of
  /// it at the current tick.
  std::string describe_task(const char* what, JobId job_id,
                            int task_index) const {
    const TaskState& ts = tasks_[static_cast<std::size_t>(job_id)]
                                [static_cast<std::size_t>(task_index)];
    std::string text = std::string(what) + ": job " + std::to_string(job_id) +
                       " task " + std::to_string(task_index) + " at t=" +
                       std::to_string(des_.now().count());
    text += " (executor: resource " + std::to_string(ts.resource) +
            ", start " + std::to_string(ts.start.count()) + ", end " +
            std::to_string(ts.end.count());
    text += ts.started ? ", started" : ", not started";
    text += ts.end_event.pending() ? ", end event pending)" : ", no end event)";
    return text;
  }

  // ---- Snapshots ----

  /// Serialize the full world: DES clock, RM state, injector state, the
  /// per-task matrix with each pending event's original (time, seq),
  /// accumulated results, and per-job completion flags. Everything a
  /// restore needs to continue the run bit-for-bit.
  std::string encode_world() const {
    io::Encoder enc;
    enc.u8(kWorldStateVersion);
    enc.ticks(des_.now());
    enc.bytes(rm_.encode_state());
    enc.bytes(injector_.encode_state());
    enc.u32(static_cast<std::uint32_t>(tasks_.size()));
    for (std::size_t ji = 0; ji < tasks_.size(); ++ji) {
      enc.u32(static_cast<std::uint32_t>(tasks_[ji].size()));
      for (const TaskState& ts : tasks_[ji]) {
        enc.boolean(ts.started);
        enc.i64(ts.resource);
        enc.ticks(ts.start);
        enc.ticks(ts.end);
        const bool end_pending = ts.end_event.pending();
        enc.boolean(end_pending);
        enc.u64(end_pending ? ts.end_event.seq() : 0);
      }
      const bool arrival_pending = arrival_events_[ji].pending();
      enc.boolean(arrival_pending);
      enc.u64(arrival_pending ? arrival_events_[ji].seq() : 0);
    }
    const bool wakeup_pending = deferral_wakeup_.pending();
    enc.boolean(wakeup_pending);
    enc.ticks(deferral_wakeup_at_);
    enc.ticks(wakeup_pending ? deferral_wakeup_.time() : kTimeZero);
    enc.u64(wakeup_pending ? deferral_wakeup_.seq() : 0);
    encode_task_list(enc, executed_);
    encode_task_list(enc, metrics_.killed);
    for (const JobRecord& r : metrics_.records) {
      enc.ticks(r.completion);
      enc.boolean(r.late);
      enc.boolean(r.failure_affected);
    }
    return enc.take();
  }

  bool restore_world(std::string_view state, std::string* error) {
    const auto fail = [error](const std::string& message) {
      *error = message;
      return false;
    };
    io::Decoder dec(state);
    const std::uint8_t version = dec.u8();
    if (dec.ok() && version != kWorldStateVersion) {
      return fail("unsupported world state version " + std::to_string(version));
    }
    const Time now = dec.ticks();
    const std::string rm_state = dec.bytes();
    const std::string injector_state = dec.bytes();
    const std::uint32_t num_jobs = dec.u32();
    if (dec.ok() && num_jobs != tasks_.size()) {
      return fail("snapshot has " + std::to_string(num_jobs) +
                  " jobs, workload has " + std::to_string(tasks_.size()));
    }
    struct TaskCapture {
      bool started = false;
      ResourceId resource = kNoResource;
      Time start = kNoTime;
      Time end = kNoTime;
      bool end_pending = false;
      std::uint64_t end_seq = 0;
    };
    std::vector<std::vector<TaskCapture>> captures(tasks_.size());
    std::vector<std::pair<bool, std::uint64_t>> arrivals(tasks_.size(),
                                                         {false, 0});
    for (std::size_t ji = 0; ji < tasks_.size() && dec.ok(); ++ji) {
      const std::uint32_t num_tasks = dec.u32();
      if (dec.ok() && num_tasks != tasks_[ji].size()) {
        return fail("snapshot job " + std::to_string(ji) + " has " +
                    std::to_string(num_tasks) + " tasks, workload has " +
                    std::to_string(tasks_[ji].size()));
      }
      captures[ji].resize(tasks_[ji].size());
      for (TaskCapture& tc : captures[ji]) {
        tc.started = dec.boolean();
        tc.resource = static_cast<ResourceId>(dec.i64());
        tc.start = dec.ticks();
        tc.end = dec.ticks();
        tc.end_pending = dec.boolean();
        tc.end_seq = dec.u64();
      }
      arrivals[ji].first = dec.boolean();
      arrivals[ji].second = dec.u64();
    }
    const bool wakeup_pending = dec.boolean();
    const Time wakeup_logical = dec.ticks();
    const Time wakeup_time = dec.ticks();
    const std::uint64_t wakeup_seq = dec.u64();
    std::vector<ExecutedTask> executed = decode_task_list(dec);
    std::vector<ExecutedTask> killed = decode_task_list(dec);
    std::vector<Time> completion(metrics_.records.size(), kNoTime);
    std::vector<std::uint8_t> late(metrics_.records.size(), 0);
    std::vector<std::uint8_t> affected(metrics_.records.size(), 0);
    for (std::size_t ji = 0; ji < metrics_.records.size() && dec.ok(); ++ji) {
      completion[ji] = dec.ticks();
      late[ji] = dec.boolean() ? 1 : 0;
      affected[ji] = dec.boolean() ? 1 : 0;
    }
    if (!dec.ok()) return fail("corrupt world state: " + dec.error());
    if (!dec.done()) {
      return fail("trailing bytes after world state at byte " +
                  std::to_string(dec.offset()));
    }

    if (!rm_.restore_state(rm_state, error)) return false;
    if (!injector_.restore_state(injector_state, error)) return false;
    des_.restore_clock(now);

    executed_.assign(executed.begin(), executed.end());  // keeps the reserve
    metrics_.killed = std::move(killed);
    metrics_.failure.tasks_killed = metrics_.killed.size();
    metrics_.failure.wasted_ticks = kTimeZero;
    for (const ExecutedTask& k : metrics_.killed) {
      metrics_.failure.wasted_ticks += k.end - k.start;
    }
    jobs_left_ = 0;
    metrics_.failure.jobs_late_failure_affected = 0;
    for (std::size_t ji = 0; ji < metrics_.records.size(); ++ji) {
      JobRecord& r = metrics_.records[ji];
      r.completion = completion[ji];
      r.late = late[ji] != 0;
      r.failure_affected = affected[ji] != 0;
      if (!r.completed()) ++jobs_left_;
      if (r.late && r.failure_affected) {
        ++metrics_.failure.jobs_late_failure_affected;
      }
    }
    for (std::size_t ji = 0; ji < remaining_.size(); ++ji) {
      remaining_[ji] = tasks_[ji].size();
    }
    for (const ExecutedTask& et : executed_) {
      const auto ji = static_cast<std::size_t>(et.job);
      if (ji >= remaining_.size() || remaining_[ji] == 0) {
        return fail("snapshot executed-task list is inconsistent");
      }
      --remaining_[ji];
    }

    // Collect every captured pending event and re-schedule the lot in
    // ascending original-seq order.
    std::vector<PendingEvent> events;
    for (std::size_t ji = 0; ji < tasks_.size(); ++ji) {
      for (std::size_t ti = 0; ti < tasks_[ji].size(); ++ti) {
        const TaskCapture& tc = captures[ji][ti];
        TaskState& ts = tasks_[ji][ti];
        ts.started = tc.started;
        ts.resource = tc.resource;
        ts.start = tc.start;
        ts.end = tc.end;
        if (tc.end_pending) {
          PendingEvent ev;
          ev.seq = tc.end_seq;
          ev.kind = PendingEvent::Kind::kTaskEnd;
          ev.time = tc.end;
          ev.job = ji;
          ev.task_index = ti;
          events.push_back(ev);
        }
      }
      if (arrivals[ji].first) {
        PendingEvent ev;
        ev.seq = arrivals[ji].second;
        ev.kind = PendingEvent::Kind::kArrival;
        ev.time = jobs_by_id_[ji]->arrival_time;
        ev.job = ji;
        events.push_back(ev);
      }
    }
    if (wakeup_pending) {
      PendingEvent ev;
      ev.seq = wakeup_seq;
      ev.kind = PendingEvent::Kind::kDeferralWakeup;
      ev.time = wakeup_time;
      events.push_back(ev);
    }
    for (const FaultInjector::PendingTransition& t :
         injector_.pending_transitions()) {
      PendingEvent ev;
      ev.seq = t.seq;
      ev.kind = PendingEvent::Kind::kInjector;
      ev.time = t.time;
      ev.transition = t;
      events.push_back(ev);
    }
    std::sort(events.begin(), events.end(),
              [](const PendingEvent& a, const PendingEvent& b) {
                return a.seq < b.seq;
              });
    for (std::size_t i = 1; i < events.size(); ++i) {
      if (events[i].seq == events[i - 1].seq) {
        return fail("duplicate event sequence number in snapshot");
      }
    }
    for (const PendingEvent& ev : events) {
      switch (ev.kind) {
        case PendingEvent::Kind::kArrival:
          schedule_arrival(*jobs_by_id_[ev.job]);
          break;
        case PendingEvent::Kind::kTaskEnd: {
          const TaskState& ts = tasks_[ev.job][ev.task_index];
          schedule_task_end(static_cast<JobId>(ev.job),
                            static_cast<int>(ev.task_index), ts.end,
                            /*committed=*/ts.started);
          break;
        }
        case PendingEvent::Kind::kDeferralWakeup:
          schedule_deferral_wakeup(ev.time);
          break;
        case PendingEvent::Kind::kInjector:
          injector_.schedule_transition(des_, ev.transition);
          break;
      }
    }
    deferral_wakeup_at_ = wakeup_logical;
    injector_.resume([this](ResourceId r, Time t) { on_resource_down(r, t); },
                     [this](ResourceId r, Time t) { on_resource_up(r, t); });
    return true;
  }

  void maybe_snapshot() {
    const std::uint64_t every = options_.durability.snapshot_every;
    if (every == 0 || journal_.crashed()) return;
    const std::uint64_t total = journal_.records_appended();
    if (total < next_snapshot_at_) return;
    SnapshotRecord snap;
    snap.journal_cursor = total;
    snap.state = encode_world();
    MRCP_CHECK_MSG(snapshot_writer_.append(encode_snapshot_record(snap)),
                   "snapshot write failed");
    next_snapshot_at_ = (total / every + 1) * every;
  }

  /// Returns true when a snapshot was restored; false means cold
  /// restore — the run starts from scratch with the journal in
  /// verification mode over its entire valid prefix. Unreadable files
  /// and corrupt snapshots chosen for restore are fatal.
  bool resume_from_disk() {
    const DurabilityOptions& dur = options_.durability;
    bool journal_opened = false;
    const io::FramedData jdata =
        io::read_framed_file(dur.journal_path(), &journal_opened);
    MRCP_CHECK_MSG(journal_opened, "restore: cannot read the journal file");
    bool snap_opened = false;
    const io::FramedData sdata =
        io::read_framed_file(dur.snapshot_path(), &snap_opened);
    std::optional<SnapshotRecord> snap;
    if (snap_opened) {
      snap = choose_snapshot(sdata.records,
                             static_cast<std::uint64_t>(jdata.records.size()));
      // Drop a torn snapshot tail so future captures append to a clean
      // prefix (mirrors the journal truncation in Journal::open_resume).
      if (sdata.tail != io::ReadStatus::kEof) {
        MRCP_CHECK_MSG(
            io::truncate_file(dur.snapshot_path(), sdata.valid_bytes),
            "restore: cannot truncate the snapshot file");
      }
    }
    MRCP_CHECK_MSG(
        snapshot_writer_.open(dur.snapshot_path(), /*truncate=*/false),
        "cannot open snapshot file for writing");
    std::uint64_t cursor = 0;
    if (snap.has_value()) {
      std::string error;
      MRCP_CHECK_MSG(restore_world(snap->state, &error), error.c_str());
      cursor = snap->journal_cursor;
    }
    std::vector<std::string> expected(
        jdata.records.begin() + static_cast<std::ptrdiff_t>(cursor),
        jdata.records.end());
    std::string error;
    MRCP_CHECK_MSG(
        journal_.open_resume(dur.journal_path(), jdata.valid_bytes,
                             std::move(expected), cursor, &error),
        error.c_str());
    const std::uint64_t every = dur.snapshot_every;
    next_snapshot_at_ = every == 0 ? 0 : (cursor / every + 1) * every;
    return snap.has_value();
  }

  SimMetrics finish(bool crashed) {
    metrics_.crash_stopped = crashed;
    if (!crashed) {
      // Every job must have completed.
      for (std::size_t ji = 0; ji < remaining_.size(); ++ji) {
        MRCP_CHECK_MSG(remaining_[ji] == 0, "job did not finish");
      }
      if (options_.durability.enabled()) {
        MRCP_CHECK_MSG(journal_.ok(), journal_.error().c_str());
        MRCP_CHECK_MSG(
            journal_.verify_pending() == 0,
            "resumed run finished before re-emitting every journal record");
      }
    }
    // Note: rm.stats().jobs_completed can lag the simulation — the RM only
    // sweeps completions when reschedule() runs, and the final tasks finish
    // after the last arrival-triggered invocation.
    const MrcpStats& rm_stats = rm_.stats();
    metrics_.degradation = rm_.degradation_counts();
    metrics_.invocations = rm_.ledger().records();
    metrics_.total_sched_seconds = rm_stats.total_sched_seconds;
    metrics_.rm_invocations = rm_stats.invocations;
    metrics_.max_live_tasks = rm_stats.max_live_tasks;
    metrics_.downtime = injector_.downtime();
    metrics_.failure.resource_failures = injector_.failures();
    metrics_.failure.resource_repairs = injector_.repairs();
    metrics_.failure.rack_bursts = injector_.rack_bursts();

    // The per-task state is dead once the run is over; free it before
    // the validator allocates its rows.
    tasks_ = {};
    if (!crashed && options_.validate_execution) {
      const Stopwatch validate;
      const std::string err =
          validate_execution(w_, executed_, metrics_.killed, metrics_.downtime);
      metrics_.validate_wall_seconds = validate.elapsed_seconds();
      MRCP_CHECK_MSG(err.empty(), err.c_str());
    }
    metrics_.executed = std::move(executed_);
    return std::move(metrics_);
  }

  const Workload& w_;
  const SimOptions& options_;
  des::Simulation des_;
  MrcpRm rm_;
  FaultInjector injector_;
  Journal journal_;
  io::FileRecordWriter snapshot_writer_;
  std::uint64_t next_snapshot_at_ = 0;

  SimMetrics metrics_;
  std::vector<ExecutedTask> executed_;
  std::size_t jobs_left_ = 0;
  std::vector<std::vector<TaskState>> tasks_;
  std::vector<std::size_t> remaining_;
  std::vector<const Job*> jobs_by_id_;
  std::vector<des::EventHandle> arrival_events_;
  des::EventHandle deferral_wakeup_;
  Time deferral_wakeup_at_ = kNoTime;
};

}  // namespace

SimMetrics simulate_mrcp(const Workload& workload, const MrcpConfig& config,
                         const SimOptions& options) {
  MRCP_CHECK_MSG(validate_workload(workload).empty(), "invalid workload");
  const FaultConfig& faults = options.faults;
  {
    const std::string fault_err = faults.validate();
    MRCP_CHECK_MSG(fault_err.empty(), fault_err.c_str());
  }

  // Stragglers are an up-front workload transform: both the RM and the
  // post-hoc validator see the true (slowed) durations.
  Workload straggled;
  const Workload* active_workload = &workload;
  std::size_t straggler_tasks = 0;
  if (faults.stragglers_enabled()) {
    straggled = workload;
    straggler_tasks = apply_stragglers(straggled, faults);
    active_workload = &straggled;
  }

  MrcpSimDriver driver(*active_workload, config, options);
  driver.set_straggler_tasks(straggler_tasks);
  return driver.run();
}

}  // namespace mrcp::sim
