#include "cp/profile.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace mrcp::cp {

Profile::Profile(int capacity) : capacity_(capacity) {
  MRCP_CHECK(capacity >= 1);
}

std::size_t Profile::first_after(Time t) const {
  auto it = std::upper_bound(
      timeline_.begin(), timeline_.end(), t,
      [](Time value, const Event& e) { return value < e.time; });
  return static_cast<std::size_t>(it - timeline_.begin());
}

std::size_t Profile::next_ok(std::size_t i, int limit) const {
  while (i < timeline_.size() && timeline_[i].usage > limit) ++i;
  return i;
}

Time Profile::earliest_feasible(Time est, Time duration, int demand) const {
  MRCP_CHECK(duration >= Time{1});
  MRCP_CHECK(demand >= 1 && demand <= capacity_);
  const int limit = capacity_ - demand;  // usage must stay <= limit

  // Locate the segment containing est; step to the first ok segment if
  // est itself is overloaded. The profile is finitely supported, so the
  // final level is 0 and an ok segment always exists.
  std::size_t i = first_after(est);  // first entry strictly after est
  Time candidate;
  if (i == 0 || timeline_[i - 1].usage <= limit) {
    candidate = est;
  } else {
    i = next_ok(i, limit);
    MRCP_DCHECK(i < timeline_.size());
    candidate = timeline_[i].time;
    ++i;
  }
  // Invariant: usage <= limit on [candidate, time of entry i). Only the
  // entries inside [candidate, candidate + duration) can refute it; an
  // overloaded one moves the candidate to the next entry that fits.
  const std::size_t n = timeline_.size();
  while (i < n && timeline_[i].time - candidate < duration) {
    if (timeline_[i].usage <= limit) {
      ++i;
      continue;
    }
    i = next_ok(i + 1, limit);
    MRCP_DCHECK(i < n);
    candidate = timeline_[i].time;
    ++i;
  }
  return candidate;
}

bool Profile::fits(Time start, Time duration, int demand) const {
  MRCP_CHECK(duration >= Time{1});
  const int limit = capacity_ - demand;
  if (limit < 0) return false;
  std::size_t i = first_after(start);
  if (i > 0 && timeline_[i - 1].usage > limit) return false;
  const Time end = start + duration;
  for (; i < timeline_.size() && timeline_[i].time < end; ++i) {
    if (timeline_[i].usage > limit) return false;
  }
  return true;
}

std::size_t Profile::ensure_event(Time t) {
  auto it = std::lower_bound(
      timeline_.begin(), timeline_.end(), t,
      [](const Event& e, Time value) { return e.time < value; });
  const auto idx = static_cast<std::size_t>(it - timeline_.begin());
  if (it != timeline_.end() && it->time == t) return idx;
  const int level = idx > 0 ? timeline_[idx - 1].usage : 0;
  timeline_.insert(it, Event{t, level});
  return idx;
}

bool Profile::drop_if_redundant(std::size_t i) {
  const int prev = i > 0 ? timeline_[i - 1].usage : 0;
  if (timeline_[i].usage != prev) return false;
  timeline_.erase(timeline_.begin() + static_cast<std::ptrdiff_t>(i));
  return true;
}

void Profile::apply(Time start, Time duration, int delta) {
  MRCP_CHECK(duration >= Time{1});
  const Time end = start + duration;

  // Fast path: the interval begins at or after the last change point, so
  // the whole edit is an amortized-O(1) tail append (the common case the
  // set-times search produces when it fixes tasks in time order).
  if (timeline_.empty() || start >= timeline_.back().time) {
    const int base = timeline_.empty() ? 0 : timeline_.back().usage;
    if (!timeline_.empty() && timeline_.back().time == start) {
      timeline_.back().usage += delta;
      drop_if_redundant(timeline_.size() - 1);
    } else if (delta != 0) {
      timeline_.push_back(Event{start, base + delta});
    }
    if (!timeline_.empty() && timeline_.back().time != end &&
        timeline_.back().usage != base) {
      timeline_.push_back(Event{end, base});
    }
    return;
  }

  std::size_t lo = ensure_event(start);
  std::size_t hi = ensure_event(end);
  MRCP_DCHECK(lo < hi);
  for (std::size_t i = lo; i < hi; ++i) timeline_[i].usage += delta;
  // Re-canonicalize the two edit boundaries (interior entries keep their
  // pairwise-distinct levels: they all shifted by the same delta).
  if (drop_if_redundant(lo)) --hi;
  drop_if_redundant(hi);
}

void Profile::add(Time start, Time duration, int demand) {
  MRCP_CHECK(demand >= 1);
  apply(start, duration, demand);
}

void Profile::remove(Time start, Time duration, int demand) {
  MRCP_CHECK(demand >= 1);
  apply(start, duration, -demand);
}

int Profile::usage_at(Time t) const {
  const std::size_t i = first_after(t);
  return i > 0 ? timeline_[i - 1].usage : 0;
}

Time Profile::next_event_after(Time t) const {
  const std::size_t i = first_after(t);
  return i < timeline_.size() ? timeline_[i].time : kMaxTime;
}

int Profile::peak_usage() const {
  int peak = 0;
  for (const Event& e : timeline_) peak = std::max(peak, e.usage);
  return peak;
}

std::string Profile::to_string() const {
  std::ostringstream os;
  os << "Profile{cap=" << capacity_ << ", events=[";
  bool first = true;
  for (const Event& e : timeline_) {
    if (!first) os << ", ";
    first = false;
    os << e.time << ":" << e.usage;
  }
  os << "]}";
  return os.str();
}

}  // namespace mrcp::cp
