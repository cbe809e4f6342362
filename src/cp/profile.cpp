#include "cp/profile.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace mrcp::cp {

Profile::Profile(int capacity) : capacity_(capacity) {
  MRCP_CHECK(capacity >= 1);
}

std::size_t Profile::first_after(Time t) const {
  return static_cast<std::size_t>(
      std::upper_bound(times_.begin(), times_.end(), t) - times_.begin());
}

std::size_t Profile::next_ok(std::size_t i, int limit) const {
  while (i < levels_.size() && levels_[i] > limit) ++i;
  return i;
}

Time Profile::earliest_feasible(Time est, Time duration, int demand,
                                 Position* at) const {
  MRCP_CHECK(duration >= Time{1});
  MRCP_CHECK(demand >= 1 && demand <= capacity_);
  const int limit = capacity_ - demand;  // usage must stay <= limit

  // Locate the segment containing est; step to the first ok segment if
  // est itself is overloaded. The profile is finitely supported, so the
  // final level is 0 and an ok segment always exists.
  std::size_t i = first_after(est);  // first entry strictly after est
  Time candidate;
  std::size_t pos;  // timeline position of candidate
  if (i == 0 || levels_[i - 1] <= limit) {
    candidate = est;
    pos = i > 0 && times_[i - 1] == est ? i - 1 : i;
  } else {
    i = next_ok(i, limit);
    MRCP_DCHECK(i < times_.size());
    candidate = times_[i];
    pos = i;
    ++i;
  }
  // Invariant: usage <= limit on [candidate, time of entry i). Only the
  // entries inside [candidate, candidate + duration) can refute it; an
  // overloaded one moves the candidate to the next entry that fits. For
  // a unit demand no entry from full_end_ on is overloaded, so the scan
  // stops there.
  const std::size_t stop = demand == 1 ? full_end_ : times_.size();
  while (i < stop && times_[i] - candidate < duration) {
    if (levels_[i] <= limit) {
      ++i;
      continue;
    }
    i = next_ok(i + 1, limit);
    MRCP_DCHECK(i < times_.size());
    candidate = times_[i];
    pos = i;
    ++i;
  }
  if (at != nullptr) *at = static_cast<Position>(pos);
  return candidate;
}

bool Profile::fits(Time start, Time duration, int demand) const {
  MRCP_CHECK(duration >= Time{1});
  const int limit = capacity_ - demand;
  if (limit < 0) return false;
  std::size_t i = first_after(start);
  if (i > 0 && levels_[i - 1] > limit) return false;
  const Time end = start + duration;
  for (; i < times_.size() && times_[i] < end; ++i) {
    if (levels_[i] > limit) return false;
  }
  return true;
}

std::size_t Profile::position_of(Time t, Position hint) const {
  const std::size_t n = times_.size();
  if (hint <= n && (hint == 0 || times_[hint - 1] < t) &&
      (hint == n || t <= times_[hint])) {
    return hint;
  }
  return static_cast<std::size_t>(
      std::lower_bound(times_.begin(), times_.end(), t) - times_.begin());
}

void Profile::apply(Time start, Time duration, int delta, Position hint) {
  MRCP_CHECK(duration >= Time{1});
  const Time end = start + duration;
  const std::size_t n = times_.size();
  const std::size_t lo = position_of(start, hint);
  const int before = lo > 0 ? levels_[lo - 1] : 0;
  // The start point: a new entry (the window's entries move right one
  // place), an existing one that keeps a distinct level (nothing moves),
  // or one whose new level equals its predecessor's (it merges, and the
  // window's entries move left one place).
  int shift = 1;
  if (lo < n && times_[lo] == start) {
    shift = levels_[lo] + delta == before ? -1 : 0;
  }

  // One pass from the start point to the end point: every entry in
  // between gains `delta` and moves `shift` places. `level` ends as the
  // old usage just before `end`, which the end point restores; `full`
  // is one past the last rewritten entry at or above capacity.
  int level = before;
  std::size_t full = 0;
  std::size_t i = lo;
  // shift +1: the entry to write next.
  Time carry_time = start;
  int carry_level = before + delta;
  if (shift == 0) {
    for (; i < n && times_[i] < end; ++i) {
      level = levels_[i];
      levels_[i] = level + delta;
      if (level + delta >= capacity_) full = i + 1;
    }
  } else if (shift < 0) {
    level = levels_[lo];
    for (++i; i < n && times_[i] < end; ++i) {
      level = levels_[i];
      times_[i - 1] = times_[i];
      levels_[i - 1] = level + delta;
      if (level + delta >= capacity_) full = i;
    }
  } else {
    for (; i < n && times_[i] < end; ++i) {
      level = levels_[i];
      std::swap(times_[i], carry_time);
      levels_[i] = carry_level;
      if (carry_level >= capacity_) full = i + 1;
      carry_level = level + delta;
    }
  }
  const std::size_t hi = i;  // first old entry at or after end

  // The end point: a new entry restoring `level`, or an existing one
  // that merges when the level before it now equals its own. What is
  // left to write (the carried entry, the new end point) goes into the
  // free places (the merged start's, the merged end point's), and only
  // the difference moves the entries past the window.
  Time pending_times[2];
  int pending_levels[2];
  std::size_t writes = 0;
  if (shift > 0) {
    pending_times[writes] = carry_time;
    pending_levels[writes++] = carry_level;
  }
  const bool end_exists = hi < n && times_[hi] == end;
  if (!end_exists) {
    pending_times[writes] = end;
    pending_levels[writes++] = level;
  }
  const std::size_t at = shift < 0 ? hi - 1 : hi;
  std::size_t frees = shift < 0 ? 1U : 0U;
  if (end_exists && levels_[hi] == level + delta) ++frees;
  const std::size_t kept = std::min(writes, frees);
  for (std::size_t k = 0; k < writes; ++k) {
    if (k < kept) {
      times_[at + k] = pending_times[k];
      levels_[at + k] = pending_levels[k];
    }
    if (pending_levels[k] >= capacity_) full = at + k + 1;
  }
  const auto gap = static_cast<std::ptrdiff_t>(at + kept);
  if (writes > frees) {
    times_.insert(times_.begin() + gap, pending_times + kept,
                  pending_times + writes);
    levels_.insert(levels_.begin() + gap, pending_levels + kept,
                   pending_levels + writes);
  } else if (frees > writes) {
    const auto gone = static_cast<std::ptrdiff_t>(frees - writes);
    times_.erase(times_.begin() + gap, times_.begin() + gap + gone);
    levels_.erase(levels_.begin() + gap, levels_.begin() + gap + gone);
  }

  // The last full entry: past the rewritten window it only moved with
  // the entries there; otherwise it is the last rewritten full entry,
  // or, failing that, the last full entry before the window.
  const std::size_t tail = at + frees;  // old index of the first unmoved entry
  if (full_end_ > tail) {
    full_end_ = full_end_ + writes - frees;
  } else if (full != 0) {
    full_end_ = full;
  } else if (full_end_ > lo) {
    full_end_ = lo;
    while (full_end_ > 0 && levels_[full_end_ - 1] < capacity_) --full_end_;
  }
}

void Profile::add(Time start, Time duration, int demand, Position hint) {
  MRCP_CHECK(demand >= 1);
  apply(start, duration, demand, hint);
}

void Profile::remove(Time start, Time duration, int demand, Position hint) {
  MRCP_CHECK(demand >= 1);
  apply(start, duration, -demand, hint);
}

int Profile::usage_at(Time t) const {
  const std::size_t i = first_after(t);
  return i > 0 ? levels_[i - 1] : 0;
}

Time Profile::next_event_after(Time t) const {
  const std::size_t i = first_after(t);
  return i < times_.size() ? times_[i] : kMaxTime;
}

int Profile::peak_usage() const {
  int peak = 0;
  for (const int level : levels_) peak = std::max(peak, level);
  return peak;
}

std::string Profile::to_string() const {
  std::ostringstream os;
  os << "Profile{cap=" << capacity_ << ", events=[";
  for (std::size_t i = 0; i < times_.size(); ++i) {
    if (i > 0) os << ", ";
    os << times_[i] << ":" << levels_[i];
  }
  os << "]}";
  return os.str();
}

std::string Profile::invariant_error() const {
  std::ostringstream os;
  if (levels_.size() != times_.size()) {
    os << times_.size() << " times but " << levels_.size() << " levels";
    return os.str();
  }
  std::size_t full_end = 0;
  for (std::size_t i = 0; i < times_.size(); ++i) {
    const int prev = i > 0 ? levels_[i - 1] : 0;
    if (i > 0 && times_[i - 1] >= times_[i]) {
      os << "entry " << i << " at t=" << times_[i]
         << " does not follow its predecessor";
      return os.str();
    }
    if (levels_[i] == prev) {
      os << "entry " << i << " at t=" << times_[i] << " repeats level "
         << prev;
      return os.str();
    }
    if (levels_[i] >= capacity_) full_end = i + 1;
  }
  if (!levels_.empty() && levels_.back() != 0) {
    os << "last level is " << levels_.back() << ", not 0";
    return os.str();
  }
  if (full_end != full_end_) {
    os << "last-full index " << full_end_ << " but a recount says "
       << full_end;
    return os.str();
  }
  return {};
}

}  // namespace mrcp::cp
