// Discrete event simulation kernel.
//
// This is the hand-rolled DES substrate the paper's evaluation rests on
// (§VI: "a simulation-based approach has been used in this research").
// It is a classic event-list kernel:
//   * events are (time, sequence, callback) triples ordered by a binary
//     heap;
//   * ties in time are broken by scheduling order (FIFO), which makes runs
//     deterministic for a fixed seed;
//   * events can be cancelled; cancellation is lazy (the heap entry stays
//     but is skipped on pop), which keeps cancel O(1) — important because
//     MRCP-RM re-plans future task starts on every job arrival, cancelling
//     all not-yet-started task events.
//
// Storage is allocation-free in steady state. An event's record (its
// sequence number, a live flag and the callback) sits in a slab slot that
// a free list hands out again once the event fires or is cancelled. The
// heap holds 24-byte plain entries (time, seq, slot); a popped entry is
// stale, and skipped, when its slot is not live or now holds another
// event (the slot's seq differs). Sequence numbers are never reused, so a
// stale entry or handle can never match a later event in the same slot.
// A callback that fits std::function's inline buffer (16 bytes with
// libstdc++, e.g. a pointer and two ints) costs no allocation at all.
//
// The kernel knows nothing about MapReduce; `mrcp::sim` builds the cluster
// model on top of it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace mrcp::des {

class Simulation;

/// Handle to a scheduled event; used to cancel it. Handles are plain
/// value types (the simulation, the event's slot and seq, and its time);
/// a default-constructed handle refers to no event. A handle asks its
/// Simulation whether the event is still pending, so it must not be
/// queried (pending(), or cancel() through it) after that Simulation is
/// destroyed; seq() and time() read only the handle.
class EventHandle {
 public:
  EventHandle() = default;

  bool valid() const { return sim_ != nullptr; }
  /// True if the event has neither fired nor been cancelled.
  bool pending() const;
  /// Scheduling metadata of the referenced event, also after it fired or
  /// was cancelled. The sequence number is what snapshot/restore uses to
  /// rebuild the event list with the exact same-tick tie-break order as
  /// the original run (docs/crash_recovery.md). Requires valid().
  std::uint64_t seq() const {
    MRCP_CHECK(valid());
    return seq_;
  }
  Time time() const {
    MRCP_CHECK(valid());
    return time_;
  }

 private:
  friend class Simulation;
  EventHandle(const Simulation* sim, std::uint32_t slot, std::uint64_t seq,
              Time time)
      : sim_(sim), seq_(seq), time_(time), slot_(slot) {}

  const Simulation* sim_ = nullptr;
  std::uint64_t seq_ = 0;
  Time time_;
  std::uint32_t slot_ = 0;
};

/// Statistics the kernel keeps about itself.
struct SimulationStats {
  std::uint64_t scheduled = 0;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t skipped_cancelled = 0;  ///< popped but already cancelled
};

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulation time (ticks). Starts at 0.
  Time now() const { return now_; }

  /// Schedule `fn` at absolute time `at` (must be >= now()).
  /// Returns a handle usable with cancel().
  EventHandle schedule_at(Time at, std::function<void()> fn);

  /// Schedule `fn` `delay` ticks from now (delay >= 0).
  EventHandle schedule_after(Time delay, std::function<void()> fn);

  /// Cancel a pending event and destroy its callback. Cancelling an
  /// already-fired or already-cancelled event is a no-op. Returns true if
  /// the event was pending.
  bool cancel(EventHandle& handle);

  /// Run until the event list is empty or `until` is reached (events at
  /// exactly `until` are processed). Pass kMaxTime to drain everything.
  void run(Time until = kMaxTime);

  /// Process exactly one event if any is pending before `until`.
  /// Returns false when no such event exists. The callback is moved out
  /// of its slot, and the slot released, before it runs: the event is no
  /// longer pending inside its own callback.
  bool step(Time until = kMaxTime);

  /// Stop the current run() after the in-flight event returns. Calling
  /// this before run() makes that run() return before processing any
  /// event; the request is consumed when run() returns.
  void request_stop() { stop_requested_ = true; }

  bool empty() const { return pending_events() == 0; }
  /// Live slots: every slot not on the free list holds a pending event.
  std::size_t pending_events() const {
    return slots_.size() - free_slots_.size();
  }
  const SimulationStats& stats() const { return stats_; }

  /// Jump the clock of an *empty* simulation forward to `at` — used when
  /// resuming from a snapshot before re-scheduling the captured pending
  /// events (each at a time >= the snapshot instant).
  void restore_clock(Time at);

 private:
  friend class EventHandle;

  struct Slot {
    std::uint64_t seq = 0;
    bool live = false;
    std::function<void()> fn;
  };
  struct Entry {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(Entry) == 24);
  /// The std heap algorithms keep the greatest entry on top; ordering by
  /// "later" puts the earliest (time, seq) there.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  bool is_pending(std::uint32_t slot, std::uint64_t seq) const {
    const Slot& s = slots_[slot];
    return s.live && s.seq == seq;
  }
  void release(std::uint32_t slot);

  Time now_;
  std::uint64_t next_seq_ = 0;
  bool stop_requested_ = false;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Entry> heap_;
  SimulationStats stats_;
};

inline bool EventHandle::pending() const {
  return sim_ != nullptr && sim_->is_pending(slot_, seq_);
}

}  // namespace mrcp::des
