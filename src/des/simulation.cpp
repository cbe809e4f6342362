#include "des/simulation.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace mrcp::des {

EventHandle Simulation::schedule_at(Time at, std::function<void()> fn) {
  MRCP_CHECK_MSG(at >= now_, "cannot schedule event in the past");
  MRCP_CHECK(fn != nullptr);
  std::uint32_t slot;
  if (free_slots_.empty()) {
    MRCP_CHECK(slots_.size() < std::numeric_limits<std::uint32_t>::max());
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const std::uint64_t seq = next_seq_++;
  Slot& s = slots_[slot];
  s.seq = seq;
  s.live = true;
  s.fn = std::move(fn);
  heap_.push_back(Entry{at, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++stats_.scheduled;
  return EventHandle{this, slot, seq, at};
}

EventHandle Simulation::schedule_after(Time delay, std::function<void()> fn) {
  MRCP_CHECK(delay >= Time{0});
  return schedule_at(now_ + delay, std::move(fn));
}

void Simulation::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.live = false;
  s.fn = nullptr;
  free_slots_.push_back(slot);
}

bool Simulation::cancel(EventHandle& handle) {
  if (!handle.pending()) return false;
  MRCP_CHECK_MSG(handle.sim_ == this, "handle of another simulation");
  release(handle.slot_);
  ++stats_.cancelled;
  return true;
}

bool Simulation::step(Time until) {
  while (!heap_.empty()) {
    const Entry top = heap_.front();
    if (top.time > until) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    if (!is_pending(top.slot, top.seq)) {
      ++stats_.skipped_cancelled;
      continue;
    }
    MRCP_DCHECK(top.time >= now_);
    now_ = top.time;
    std::function<void()> fn = std::move(slots_[top.slot].fn);
    release(top.slot);
    ++stats_.fired;
    fn();
    return true;
  }
  return false;
}

void Simulation::restore_clock(Time at) {
  MRCP_CHECK_MSG(empty(), "restore_clock requires an empty event list");
  MRCP_CHECK(at >= now_);
  now_ = at;
}

void Simulation::run(Time until) {
  // A stop requested before run() halts it before the first event; the
  // flag is consumed on exit so the next run() starts fresh either way.
  while (!stop_requested_ && step(until)) {
  }
  stop_requested_ = false;
}

}  // namespace mrcp::des
