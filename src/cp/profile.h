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
// any length is one entry. On the §V.D combined resource of a Facebook
// run a timeline holds about 100 entries, in one usual shape: a plateau
// at capacity, then a descending staircase of about capacity steps. A
// placement lands on the first step and raises the steps it covers, so
// appends past the last entry are rare (under 1 % of edits). A placement
// therefore costs one binary search and one pass over its window:
//
//  * the query hands the timeline position of its answer to the edit
//    (Position), which checks it in O(1) and binary-searches only when
//    it is stale;
//  * an edit walks from its start to its end point, shifting the entries
//    in between by the one place its start and end points need, so the
//    entries past the window move at most once (and not at all when the
//    start merges into its predecessor and the end point is new — the
//    staircase case);
//  * the index past the last entry at or above capacity is kept, so a
//    unit-demand query whose candidate lies beyond it is answered
//    without scanning its window.
//
// docs/perf.md "The hot path" has the measurements behind each part.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/types.h"

namespace mrcp::cp {

class Profile {
 public:
  /// A timeline position: the index of the first entry whose time is at
  /// or after a given time. A query reports it for its answer and the
  /// edit placing that answer takes it back as a hint.
  using Position = std::uint32_t;
  static constexpr Position kNoPosition = std::numeric_limits<Position>::max();

  explicit Profile(int capacity);

  int capacity() const { return capacity_; }

  /// Earliest t >= est such that usage(u) + demand <= capacity for all
  /// u in [t, t + duration). Always exists (the profile is finitely
  /// supported), so this never fails. duration >= 1, demand in [1, cap].
  /// When `at` is given it receives the timeline position of t.
  Time earliest_feasible(Time est, Time duration, int demand,
                         Position* at = nullptr) const;

  /// True iff the interval [start, start+duration) fits with `demand`.
  bool fits(Time start, Time duration, int demand) const;

  /// Place / remove an interval. remove() must mirror a previous add().
  /// `hint` is the timeline position of `start` if the caller knows it
  /// (earliest_feasible's `at`); a stale or absent hint costs one binary
  /// search and never changes the result.
  void add(Time start, Time duration, int demand,
           Position hint = kNoPosition);
  void remove(Time start, Time duration, int demand,
              Position hint = kNoPosition);

  /// Usage at time t (number of busy slots).
  int usage_at(Time t) const;

  /// The first time strictly greater than t at which the usage step
  /// function changes; kMaxTime when there is none. Used to enumerate
  /// postponed start candidates during branching.
  Time next_event_after(Time t) const;

  /// Peak usage over the whole horizon (diagnostics/tests).
  int peak_usage() const;

  std::size_t num_events() const { return times_.size(); }

  std::string to_string() const;

  /// Empty when the representation is sound: times strictly increasing,
  /// every level distinct from its predecessor's (the first from 0), the
  /// last level 0, and the kept last-full index equal to a recount.
  /// Otherwise a description of the first violation (audits and tests).
  std::string invariant_error() const;

 private:
  void apply(Time start, Time duration, int delta, Position hint);
  /// Index of the first entry with time >= t: `hint` when it is that
  /// index (checked in O(1)), a binary search otherwise.
  std::size_t position_of(Time t, Position hint) const;
  /// Index of the first entry with time > t (== size() if none).
  std::size_t first_after(Time t) const;
  /// First index >= i whose usage is <= `limit` (== size() if none).
  std::size_t next_ok(std::size_t i, int limit) const;

  int capacity_;
  /// The timeline, one entry per index: usage level levels_[i] holds on
  /// [times_[i], times_[i + 1]). Canonical: times increasing, each level
  /// distinct from its predecessor's (the first from 0), the last 0. Two
  /// arrays, so the binary searches read times only.
  std::vector<Time> times_;
  std::vector<int> levels_;
  /// One past the last entry whose usage is >= capacity_ (0 if none):
  /// every entry from here on leaves room for a unit demand.
  std::size_t full_end_ = 0;
};

}  // namespace mrcp::cp
