#include "harness/replay.h"

#include <algorithm>
#include <tuple>

#include "des/simulation.h"

namespace perfbench {

using mrcp::kNoTime;
using mrcp::Time;

namespace {

/// Span name of a call; a string literal, as Span requires.
const char* call_kind_name(CallKind kind) {
  switch (kind) {
    case CallKind::kSubmit: return "core.submit";
    case CallKind::kReschedule: return "core.reschedule";
    case CallKind::kFaultApi: return "core.fault_api";
  }
  return "?";
}

/// Times one call into the scheduler and, when tracing, spans it.
class CallTimer {
 public:
  CallTimer(ReplayResult& out, Tracer* tracer) : out_(out), tracer_(tracer) {}

  template <class F>
  void operator()(CallKind kind, F&& fn) {
    const int span =
        tracer_ != nullptr ? tracer_->begin(call_kind_name(kind)) : -1;
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    if (tracer_ != nullptr) tracer_->end(span);
    out_.calls.push_back(TimedCall{kind, ns_between(t0, t1)});
  }

 private:
  ReplayResult& out_;
  Tracer* tracer_;
};

bool before(Time a, Time b) { return a != kNoTime && (b == kNoTime || a < b); }

}  // namespace

ReplayResult replay_mrcp(const mrcp::Workload& workload,
                         const std::vector<mrcp::sim::DownInterval>& downtime,
                         mrcp::MrcpRm& rm, Tracer* tracer) {
  struct Transition {
    Time at;
    bool up = false;
    mrcp::ResourceId resource = mrcp::kNoResource;
  };
  // Downs keep the log's failure order (a rack burst downs its members in
  // that order at one instant); the stable sort only interleaves repairs.
  std::vector<Transition> transitions;
  for (const mrcp::sim::DownInterval& d : downtime) {
    transitions.push_back({d.start, false, d.resource});
    if (d.end != kNoTime) transitions.push_back({d.end, true, d.resource});
  }
  std::stable_sort(transitions.begin(), transitions.end(),
                   [](const Transition& a, const Transition& b) {
                     return a.at < b.at;
                   });

  ReplayResult out;
  out.calls.reserve(3 * workload.jobs.size() + 3 * transitions.size());
  CallTimer timed(out, tracer);
  const Clock::time_point start = Clock::now();

  // Mirror of the simulation driver's deferral wake-up: re-armed only when
  // next_deferred_release() changes, never earlier than now.
  Time wake_release = kNoTime;
  Time wake_at = kNoTime;
  const auto reschedule = [&](Time now) {
    timed(CallKind::kReschedule, [&] { rm.reschedule(now); });
    const Time next = rm.next_deferred_release();
    if (next == wake_release) return;
    wake_release = next;
    wake_at = next == kNoTime ? kNoTime : std::max(next, now);
  };

  std::size_t next_job = 0;
  std::size_t next_transition = 0;
  while (true) {
    const Time arrival = next_job < workload.jobs.size()
                             ? workload.jobs[next_job].arrival_time
                             : kNoTime;
    const Time transition = next_transition < transitions.size()
                                ? transitions[next_transition].at
                                : kNoTime;
    // Same-instant order follows the simulation's event sequence numbers:
    // arrivals were scheduled first, wake-ups last.
    if (arrival != kNoTime && !before(transition, arrival) &&
        !before(wake_at, arrival)) {
      const mrcp::Job& job = workload.jobs[next_job++];
      timed(CallKind::kSubmit, [&] { rm.submit(job, arrival); });
      reschedule(arrival);
    } else if (transition != kNoTime && !before(wake_at, transition)) {
      const Transition& t = transitions[next_transition++];
      timed(CallKind::kFaultApi, [&] {
        if (t.up) {
          rm.handle_resource_up(t.resource, t.at);
        } else {
          rm.handle_resource_down(t.resource, t.at);
        }
      });
      reschedule(t.at);
    } else if (wake_at != kNoTime) {
      const Time now = wake_at;
      wake_release = kNoTime;
      wake_at = kNoTime;
      reschedule(now);
    } else {
      break;
    }
  }
  out.wall_seconds = seconds_since(start);
  return out;
}

MinEdfReplay replay_minedf(
    const mrcp::Workload& workload, const mrcp::baseline::MinEdfConfig& config,
    const std::vector<mrcp::sim::ExecutedTask>& executed) {
  MinEdfReplay out;
  CallTimer timed(out.timing, nullptr);
  mrcp::des::Simulation des;
  std::vector<mrcp::sim::ExecutedTask> launched;
  launched.reserve(executed.size());
  mrcp::baseline::MinEdfWcScheduler* sched_ptr = nullptr;
  mrcp::des::EventHandle wakeup;
  Time wake_at = kNoTime;

  // The same DES scheduling pattern as simulate_minedf, so same-instant
  // events fire in the same order and the scheduler sees the same calls.
  const auto update_wakeup = [&] {
    const Time next = sched_ptr->next_eligible_time(des.now());
    if (next == wake_at) return;
    if (wakeup.pending()) des.cancel(wakeup);
    wake_at = next;
    if (next == kNoTime) return;
    wakeup = des.schedule_at(std::max(next, des.now()), [&] {
      wake_at = kNoTime;
      timed(CallKind::kReschedule, [&] { sched_ptr->wake(des.now()); });
    });
  };
  mrcp::baseline::MinEdfWcScheduler sched(
      workload.cluster,
      [&](mrcp::JobId job, int task_index, Time start, Time base_end) -> Time {
        launched.push_back(
            mrcp::sim::ExecutedTask{job, task_index, mrcp::kNoResource, start,
                                    base_end});
        des.schedule_at(base_end, [&, job, task_index] {
          timed(CallKind::kReschedule, [&] {
            sched_ptr->on_task_finished(job, task_index, des.now());
          });
          update_wakeup();
        });
        return base_end;
      },
      config);
  sched_ptr = &sched;
  const Clock::time_point start = Clock::now();
  for (const mrcp::Job& job : workload.jobs) {
    des.schedule_at(job.arrival_time, [&, &job = job] {
      timed(CallKind::kReschedule, [&] { sched.submit(job, des.now()); });
      update_wakeup();
    });
  }
  des.run();
  out.timing.wall_seconds = seconds_since(start);
  out.dispatches = sched.stats().dispatches;

  const auto key = [](const mrcp::sim::ExecutedTask& t) {
    return std::make_tuple(t.job, t.task_index, t.start, t.end);
  };
  const auto by_key = [&](const mrcp::sim::ExecutedTask& a,
                          const mrcp::sim::ExecutedTask& b) {
    return key(a) < key(b);
  };
  std::vector<mrcp::sim::ExecutedTask> expected = executed;
  std::sort(expected.begin(), expected.end(), by_key);
  std::sort(launched.begin(), launched.end(), by_key);
  const auto same = [&](const mrcp::sim::ExecutedTask& a,
                        const mrcp::sim::ExecutedTask& b) {
    return key(a) == key(b);
  };
  out.matches_trace =
      launched.size() == expected.size() &&
      std::equal(launched.begin(), launched.end(), expected.begin(), same);
  return out;
}

}  // namespace perfbench
