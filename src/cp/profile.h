// Timetable profile: the solver-side data structure behind the paper's
// cumulative constraints (Table 1, Constraints 5 and 6).
//
// One Profile exists per (resource, phase) pair with capacity c. It
// stores the usage step function of all intervals placed so far and
// answers the query the set-times search needs: the earliest start >=
// est at which an interval of the given duration and demand fits
// without ever exceeding the capacity. This is timetable filtering
// specialised to fully-decided intervals, which is exactly the
// propagation the `pulse`-sum formulation of the paper's OPL model
// performs on the incrementally fixed schedule.
//
// Representation: a flat sorted timeline of (time, usage) change points
// — entry i means the usage level is `usage` on [time_i, time_{i+1}).
// The timeline is canonical (adjacent levels differ), so a plateau of
// any length is one entry. Queries enter it with a binary search and
// then scan only the entries inside the asked-for window; appends at or
// after the last event (the common case set-times search produces) are
// amortized O(1). Real runs keep timelines at a few hundred entries at
// most, where a linear scan beats any summary index it would have to
// maintain on every edit.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.h"

namespace mrcp::cp {

class Profile {
 public:
  explicit Profile(int capacity);

  int capacity() const { return capacity_; }

  /// Earliest t >= est such that usage(u) + demand <= capacity for all
  /// u in [t, t + duration). Always exists (the profile is finitely
  /// supported), so this never fails. duration >= 1, demand in [1, cap].
  Time earliest_feasible(Time est, Time duration, int demand) const;

  /// True iff the interval [start, start+duration) fits with `demand`.
  bool fits(Time start, Time duration, int demand) const;

  /// Place / remove an interval. remove() must mirror a previous add().
  void add(Time start, Time duration, int demand);
  void remove(Time start, Time duration, int demand);

  /// Usage at time t (number of busy slots).
  int usage_at(Time t) const;

  /// The first time strictly greater than t at which the usage step
  /// function changes; kMaxTime when there is none. Used to enumerate
  /// postponed start candidates during branching.
  Time next_event_after(Time t) const;

  /// Peak usage over the whole horizon (diagnostics/tests).
  int peak_usage() const;

  std::size_t num_events() const { return timeline_.size(); }

  std::string to_string() const;

 private:
  /// Usage level `usage` holds on [time, next entry's time).
  struct Event {
    Time time;
    int usage;
  };

  void apply(Time start, Time duration, int delta);
  /// Index of the entry at exactly time t, inserting one (with the
  /// surrounding usage level, i.e. a no-op change point) if absent.
  std::size_t ensure_event(Time t);
  /// Drop entry i if it no longer changes the level; true if dropped.
  bool drop_if_redundant(std::size_t i);
  /// Index of the first entry with time > t (== size() if none).
  std::size_t first_after(Time t) const;
  /// First index >= i whose usage is <= `limit` (== size() if none).
  std::size_t next_ok(std::size_t i, int limit) const;

  int capacity_;
  std::vector<Event> timeline_;  ///< canonical: times increasing, levels
                                 ///< distinct from their predecessor
};

}  // namespace mrcp::cp
