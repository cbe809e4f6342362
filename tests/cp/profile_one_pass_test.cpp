// Differential test of Profile's one-pass placement path against the
// always-compiled O(n^2) audit::ReferenceProfile oracle.
//
// A placement hands the query's timeline position to the edit as a
// hint, an edit rewrites its window in one pass and moves the entries
// past it at most once, and the profile keeps the index past its last
// full entry so unit-demand queries stop there. Each case interleaves
// earliest_feasible, add (with fresh, stale and absent hints), remove,
// fits, usage_at, next_event_after and mid-sequence copies, and after
// every edit compares the whole step function with the oracle and
// checks the profile's own invariants, whose last-full index must equal
// a recount (audit::check_profile_against_reference does both).
#include "cp/profile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "cp/audit.h"

namespace mrcp::cp {
namespace {

using Interval = std::tuple<Time, Time, int>;

/// The fast profile's change points, in order.
std::vector<Time> events_of(const Profile& p) {
  std::vector<Time> events;
  Time t = kNoTime;
  while ((t = p.next_event_after(t)) != kMaxTime) events.push_back(t);
  return events;
}

/// The timeline position of t: how many change points lie before it.
Profile::Position position_of(const Profile& p, Time t) {
  const std::vector<Time> events = events_of(p);
  return static_cast<Profile::Position>(
      std::lower_bound(events.begin(), events.end(), t) - events.begin());
}

/// The oracle's next time after t at which usage changes.
Time reference_next_event(const audit::ReferenceProfile& ref, Time t) {
  for (const Time c : ref.change_points()) {
    if (c > t && ref.usage_at(c) != ref.usage_at(c - Time{1})) return c;
  }
  return kMaxTime;
}

/// What kind of hint an edit gets.
enum class Hint { kFresh, kStale, kAbsent };

/// A fast profile, its oracle and the intervals both hold, with counters
/// of the edit shapes the one-pass path distinguishes.
struct Pair {
  explicit Pair(int capacity) : fast(capacity), ref(capacity) {}

  Profile fast;
  audit::ReferenceProfile ref;
  std::vector<Interval> live;
  int tail_appends = 0;  ///< edits starting at or after the last entry
  int back_merges = 0;   ///< adds whose start merges into its predecessor
  int full_clears = 0;   ///< removes that lowered the last full entry

  int capacity() const { return ref.capacity(); }

  /// The position handed to an edit of `start`: the true one, a wrong
  /// one near it, or none.
  Profile::Position hint_for(Time start, Hint kind, RandomStream& rng) const {
    if (kind == Hint::kAbsent) return Profile::kNoPosition;
    const Profile::Position pos = position_of(fast, start);
    if (kind == Hint::kFresh) return pos;
    const auto off = static_cast<Profile::Position>(rng.uniform_int(1, 3));
    return rng.uniform_int(0, 1) == 0 && pos >= off ? pos - off : pos + off;
  }

  /// Index past the last entry at or above capacity, by recount through
  /// the public interface.
  std::size_t full_end() const {
    const std::vector<Time> events = events_of(fast);
    std::size_t end = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (fast.usage_at(events[i]) >= capacity()) end = i + 1;
    }
    return end;
  }

  void count_shape(Time start, int delta) {
    const std::vector<Time> events = events_of(fast);
    if (events.empty() || start >= events.back()) ++tail_appends;
    if (delta > 0 && std::binary_search(events.begin(), events.end(), start) &&
        fast.usage_at(start) + delta == fast.usage_at(start - Time{1})) {
      ++back_merges;
    }
  }

  void add(Time start, Time dur, int demand, Profile::Position hint) {
    count_shape(start, demand);
    fast.add(start, dur, demand, hint);
    ref.add(start, dur, demand);
    live.emplace_back(start, dur, demand);
  }

  void remove_at(std::size_t k, Hint kind, RandomStream& rng) {
    const auto [start, dur, demand] = live[k];
    count_shape(start, -demand);
    const std::size_t full_before = full_end();
    fast.remove(start, dur, demand, hint_for(start, kind, rng));
    ref.remove(start, dur, demand);
    if (full_end() < full_before) ++full_clears;
    live[k] = live.back();
    live.pop_back();
  }
};

void expect_same(const Pair& p) {
  ASSERT_EQ("", audit::check_profile_against_reference(p.fast, p.ref))
      << p.fast.to_string();
}

/// Compares one query of each read-only kind at `t`.
void expect_same_reads(const Pair& p, Time t, Time dur, int demand) {
  Profile::Position at = Profile::kNoPosition;
  const Time got = p.fast.earliest_feasible(t, dur, demand, &at);
  ASSERT_EQ(p.ref.earliest_feasible(t, dur, demand), got)
      << "earliest_feasible(est=" << t << ", dur=" << dur
      << ", demand=" << demand << ") on " << p.fast.to_string();
  ASSERT_EQ(position_of(p.fast, got), at)
      << "position of " << got << " on " << p.fast.to_string();
  ASSERT_EQ(p.ref.fits(t, dur, demand), p.fast.fits(t, dur, demand))
      << "fits(" << t << ", " << dur << ", " << demand << ")";
  ASSERT_EQ(p.ref.usage_at(t), p.fast.usage_at(t)) << "usage_at(" << t << ")";
  ASSERT_EQ(reference_next_event(p.ref, t), p.fast.next_event_after(t))
      << "next_event_after(" << t << ")";
}

Hint random_hint(RandomStream& rng) {
  switch (rng.uniform_int(0, 2)) {
    case 0: return Hint::kFresh;
    case 1: return Hint::kStale;
    default: return Hint::kAbsent;
  }
}

/// One random step: a placement (query, then add with a hint), a
/// removal, an overloading add (a pinned task replayed past capacity)
/// or a batch of read-only queries.
void random_step(Pair& p, RandomStream& rng, std::int64_t horizon,
                 std::int64_t max_dur, bool overloads) {
  const int cap = p.capacity();
  const std::int64_t op = rng.uniform_int(0, 9);
  const Time t{rng.uniform_int(0, horizon)};
  const Time dur{rng.uniform_int(1, max_dur)};
  const int demand =
      rng.uniform_int(0, 2) == 0 ? 1 : static_cast<int>(rng.uniform_int(1, cap));
  if (op <= 4) {
    Profile::Position at = Profile::kNoPosition;
    const Time start = p.fast.earliest_feasible(t, dur, demand, &at);
    ASSERT_EQ(p.ref.earliest_feasible(t, dur, demand), start);
    const Hint kind = random_hint(rng);
    p.add(start, dur, demand,
          kind == Hint::kFresh ? at : p.hint_for(start, kind, rng));
  } else if (op <= 7) {
    if (p.live.empty()) return;
    const auto k = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(p.live.size()) - 1));
    p.remove_at(k, random_hint(rng), rng);
  } else if (op == 8 && overloads) {
    const Hint kind = random_hint(rng);
    p.add(t, dur, demand, p.hint_for(t, kind, rng));
  } else {
    for (int q = 0; q < 4; ++q) {
      const Time at{rng.uniform_int(0, horizon + max_dur)};
      ASSERT_NO_FATAL_FAILURE(expect_same_reads(p, at, dur, demand));
    }
    return;
  }
  ASSERT_NO_FATAL_FAILURE(expect_same(p));
}

TEST(ProfileOnePass, RandomInterleavingsMatchReference) {
  int tail_appends = 0;
  int back_merges = 0;
  int full_clears = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    RandomStream rng(seed, 0x0E9A55);
    const int caps[] = {1, 2, 3, 5, 64};
    const int cap = caps[seed % 5];
    Pair p(cap);
    const std::int64_t horizon = 200 + 40 * cap;
    for (int step = 0; step < 400; ++step) {
      ASSERT_NO_FATAL_FAILURE(
          random_step(p, rng, horizon, 60, /*overloads=*/seed % 3 == 0));
    }
    tail_appends += p.tail_appends;
    back_merges += p.back_merges;
    full_clears += p.full_clears;
  }
  EXPECT_GT(tail_appends, 100);
  EXPECT_GT(back_merges, 100);
  EXPECT_GT(full_clears, 100);
}

TEST(ProfileOnePass, CopiesTakenMidSequenceAreIndependent) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RandomStream rng(seed, 0xC0B1E5);
    const int cap = seed % 2 == 0 ? 64 : 3;
    Pair p(cap);
    for (int step = 0; step < 150; ++step) {
      ASSERT_NO_FATAL_FAILURE(random_step(p, rng, 600, 50, seed % 4 == 0));
    }
    // A copy carries the timeline and its last-full index; editing it
    // leaves the original as it was, and the reverse.
    const std::string snapshot = p.fast.to_string();
    Pair copy = p;
    ASSERT_NO_FATAL_FAILURE(expect_same(copy));
    for (int step = 0; step < 150; ++step) {
      ASSERT_NO_FATAL_FAILURE(random_step(copy, rng, 600, 50, false));
    }
    ASSERT_EQ(snapshot, p.fast.to_string());
    ASSERT_NO_FATAL_FAILURE(expect_same(p));
    for (int step = 0; step < 100; ++step) {
      ASSERT_NO_FATAL_FAILURE(random_step(p, rng, 600, 50, false));
    }
    ASSERT_NO_FATAL_FAILURE(expect_same(copy));
  }
}

/// The §V.D combined resource's usual timeline: a plateau at capacity,
/// then one step down every `step` ticks to 0.
Pair staircase(int cap, Time step) {
  Pair p(cap);
  for (int k = 0; k < cap; ++k) {
    p.add(Time{0}, Time{1000} + step * (k + 1), 1, Profile::kNoPosition);
  }
  return p;
}

TEST(ProfileOnePass, UnitDemandQueriesOnAStaircaseAtCapacity) {
  // Each unit placement lands on the first step below the plateau, and
  // its query must not scan past the last full entry to find it. Place
  // and undo like the search does: the undo gets the placement's hint.
  Pair p = staircase(64, Time{10});
  ASSERT_EQ(p.fast.num_events(), 65u);
  ASSERT_EQ(p.full_end(), 1u);
  RandomStream rng(5, 0x57A1);
  std::vector<std::tuple<Time, Time, Profile::Position>> placed;
  for (int k = 0; k < 200; ++k) {
    const Time est{rng.uniform_int(0, 1800)};
    const Time dur{rng.uniform_int(1, 400)};
    ASSERT_NO_FATAL_FAILURE(expect_same_reads(p, est, dur, 1));
    Profile::Position at = Profile::kNoPosition;
    const Time start = p.fast.earliest_feasible(est, dur, 1, &at);
    p.add(start, dur, 1, at);
    ASSERT_NO_FATAL_FAILURE(expect_same(p));
    placed.emplace_back(start, dur, at);
    if (k % 3 == 2) {
      // Undo the newest placement: the profile is back in the state its
      // query saw, so its position is fresh again.
      const auto [s, d, pos] = placed.back();
      placed.pop_back();
      p.fast.remove(s, d, 1, pos);
      p.ref.remove(s, d, 1);
      p.live.erase(std::find(p.live.begin(), p.live.end(), Interval{s, d, 1}));
      ASSERT_NO_FATAL_FAILURE(expect_same(p));
    }
  }
  EXPECT_GT(p.back_merges, 50);
}

TEST(ProfileOnePass, RemovalsClearTheLastFullEntry) {
  // Full stretches at both ends of the timeline; removing the later ones
  // must move the last-full index back to the earlier stretch, then to
  // nothing.
  for (const int cap : {1, 4, 64}) {
    Pair p(cap);
    p.add(Time{0}, Time{100}, cap, Profile::kNoPosition);
    p.add(Time{500}, Time{100}, cap, Profile::kNoPosition);
    for (int k = 0; k < cap; ++k) {
      p.add(Time{1000} + Time{k}, Time{200}, 1, Profile::kNoPosition);
    }
    ASSERT_NO_FATAL_FAILURE(expect_same(p));
    RandomStream rng(static_cast<std::uint64_t>(cap), 0xF011);
    while (!p.live.empty()) {
      // Newest first, so the latest full stretch goes first.
      p.remove_at(p.live.size() - 1, random_hint(rng), rng);
      ASSERT_NO_FATAL_FAILURE(expect_same(p));
      ASSERT_NO_FATAL_FAILURE(expect_same_reads(p, Time{0}, Time{20}, 1));
    }
    EXPECT_EQ(p.fast.num_events(), 0u);
    EXPECT_GE(p.full_clears, 2);
  }
}

TEST(ProfileOnePass, TailAppendsAndBackMerges) {
  // Back-to-back unit intervals: each one starts at the last entry,
  // where the previous one ended, so its start point merges back into
  // its predecessor's level (a tail append and a back-merge). Then each
  // is raised again from the back, which merges end points into the
  // already raised successors.
  Pair p(2);
  Time t{0};
  for (int k = 0; k < 40; ++k) {
    const Time dur{1 + k % 7};
    Profile::Position at = Profile::kNoPosition;
    ASSERT_EQ(p.fast.earliest_feasible(t, dur, 2, &at), t);
    p.add(t, dur, 1, at);
    ASSERT_NO_FATAL_FAILURE(expect_same(p));
    t += dur;
  }
  for (std::size_t k = p.live.size(); k-- > 0;) {
    const auto [start, dur, demand] = p.live[k];
    p.add(start, dur, demand, position_of(p.fast, start));
    ASSERT_NO_FATAL_FAILURE(expect_same(p));
    ASSERT_NO_FATAL_FAILURE(expect_same_reads(p, start, dur, 1));
  }
  EXPECT_GE(p.tail_appends, 40);
  EXPECT_GE(p.back_merges, 30);
}

TEST(ProfileOnePass, PinnedOverloadsAboveCapacity) {
  // Pinned tasks are replayed without a fit check, so a level can exceed
  // the capacity; such entries count as full and every query must jump
  // past them.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RandomStream rng(seed, 0x0E7F);
    const int cap = static_cast<int>(rng.uniform_int(1, 6));
    Pair p(cap);
    for (int k = 0; k < 12; ++k) {
      const Time start{rng.uniform_int(0, 400)};
      const Time dur{rng.uniform_int(10, 80)};
      p.add(start, dur, static_cast<int>(rng.uniform_int(1, cap)),
            p.hint_for(start, random_hint(rng), rng));
    }
    ASSERT_GT(p.fast.peak_usage(), cap) << "seed " << seed;
    ASSERT_NO_FATAL_FAILURE(expect_same(p));
    for (int step = 0; step < 200; ++step) {
      ASSERT_NO_FATAL_FAILURE(random_step(p, rng, 500, 40, true));
    }
  }
}

TEST(ProfileOnePass, HintsNeverChangeTheResult) {
  // The same edit sequence with fresh, stale and absent hints ends in
  // the same timeline.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Pair fresh(5);
    Pair stale(5);
    Pair absent(5);
    RandomStream rng(seed, 0x41D7);
    RandomStream noise(seed, 0x0015E);
    for (int step = 0; step < 200; ++step) {
      const Time est{rng.uniform_int(0, 800)};
      const Time dur{rng.uniform_int(1, 60)};
      const int demand = static_cast<int>(rng.uniform_int(1, 5));
      if (step % 4 == 3 && !fresh.live.empty()) {
        const auto k = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(fresh.live.size()) - 1));
        fresh.remove_at(k, Hint::kFresh, noise);
        stale.remove_at(k, Hint::kStale, noise);
        absent.remove_at(k, Hint::kAbsent, noise);
      } else {
        Profile::Position at = Profile::kNoPosition;
        const Time start = fresh.fast.earliest_feasible(est, dur, demand, &at);
        fresh.add(start, dur, demand, at);
        stale.add(start, dur, demand, stale.hint_for(start, Hint::kStale, noise));
        absent.add(start, dur, demand, Profile::kNoPosition);
      }
      ASSERT_NO_FATAL_FAILURE(expect_same(fresh));
      ASSERT_EQ(fresh.fast.to_string(), stale.fast.to_string());
      ASSERT_EQ(fresh.fast.to_string(), absent.fast.to_string());
    }
  }
}

}  // namespace
}  // namespace mrcp::cp
