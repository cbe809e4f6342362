// Randomized differential test: the flat-timeline Profile against a
// straightforward map-of-deltas reference model (the seed
// implementation), over long random add/remove/query sequences. Any
// divergence in earliest_feasible / fits / usage_at / peak_usage /
// next_event_after / num_events is a bug in the timeline.
#include "cp/profile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "common/rng.h"

namespace mrcp::cp {
namespace {

/// The seed's map-based profile, kept verbatim as the oracle.
class ReferenceProfile {
 public:
  explicit ReferenceProfile(int capacity) : capacity_(capacity) {}

  Time earliest_feasible(Time est, Time duration, int demand) const {
    int usage = 0;
    auto it = delta_.begin();
    for (; it != delta_.end() && it->first <= est; ++it) usage += it->second;
    Time candidate = est;
    bool in_feasible = usage + demand <= capacity_;
    while (true) {
      const Time next_change = (it == delta_.end()) ? kMaxTime : it->first;
      if (in_feasible && next_change - candidate >= duration) return candidate;
      if (it == delta_.end()) return candidate;
      const Time seg_start = next_change;
      while (it != delta_.end() && it->first == seg_start) {
        usage += it->second;
        ++it;
      }
      const bool feasible_now = usage + demand <= capacity_;
      if (feasible_now && !in_feasible) candidate = seg_start;
      in_feasible = feasible_now;
    }
  }

  bool fits(Time start, Time duration, int demand) const {
    int usage = 0;
    auto it = delta_.begin();
    for (; it != delta_.end() && it->first <= start; ++it) usage += it->second;
    if (usage + demand > capacity_) return false;
    for (; it != delta_.end() && it->first < start + duration; ++it) {
      usage += it->second;
      if (usage + demand > capacity_) return false;
    }
    return true;
  }

  void add(Time start, Time duration, int demand) {
    apply(start, duration, demand);
  }
  void remove(Time start, Time duration, int demand) {
    apply(start, duration, -demand);
  }

  int usage_at(Time t) const {
    int usage = 0;
    for (const auto& [time, d] : delta_) {
      if (time > t) break;
      usage += d;
    }
    return usage;
  }

  Time next_event_after(Time t) const {
    auto it = delta_.upper_bound(t);
    return it == delta_.end() ? kMaxTime : it->first;
  }

  int peak_usage() const {
    int usage = 0;
    int peak = 0;
    for (const auto& [time, d] : delta_) {
      usage += d;
      peak = std::max(peak, usage);
    }
    return peak;
  }

  std::size_t num_events() const { return delta_.size(); }

 private:
  void apply(Time start, Time duration, int delta) {
    delta_[start] += delta;
    if (delta_[start] == 0) delta_.erase(start);
    delta_[start + duration] -= delta;
    auto it = delta_.find(start + duration);
    if (it != delta_.end() && it->second == 0) delta_.erase(it);
  }

  int capacity_;
  std::map<Time, int> delta_;
};

class FlatProfileDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FlatProfileDifferential, AgreesWithMapReferenceOverRandomOps) {
  RandomStream rng(GetParam(), 0);
  const int capacity = static_cast<int>(rng.uniform_int(1, 8));
  Profile flat(capacity);
  ReferenceProfile ref(capacity);
  std::vector<std::tuple<Time, Time, int>> placed;

  const int kOps = 10000;
  for (int op = 0; op < kOps; ++op) {
    const auto dice = rng.uniform_int(0, 9);
    if (dice < 4 || placed.empty()) {
      // Add: mix of clustered short intervals and tail appends (the
      // set-times pattern the fast path serves).
      const Time s{rng.bernoulli(0.3) ? rng.uniform_int(0, 200)
                                      : rng.uniform_int(0, 100000)};
      const Time d{rng.uniform_int(1, 500)};
      const int q = static_cast<int>(rng.uniform_int(1, capacity));
      flat.add(s, d, q);
      ref.add(s, d, q);
      placed.emplace_back(s, d, q);
    } else if (dice < 6) {
      // Remove a random placed interval.
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(placed.size()) - 1));
      const auto [s, d, q] = placed[i];
      flat.remove(s, d, q);
      ref.remove(s, d, q);
      placed.erase(placed.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      const Time t{rng.uniform_int(0, 110000)};
      const Time dur{rng.uniform_int(1, 800)};
      const int q = static_cast<int>(rng.uniform_int(1, capacity));
      ASSERT_EQ(flat.earliest_feasible(t, dur, q),
                ref.earliest_feasible(t, dur, q))
          << "op " << op << " est=" << t << " dur=" << dur << " q=" << q;
      ASSERT_EQ(flat.fits(t, dur, q), ref.fits(t, dur, q)) << "op " << op;
      ASSERT_EQ(flat.usage_at(t), ref.usage_at(t)) << "op " << op;
      ASSERT_EQ(flat.next_event_after(t), ref.next_event_after(t))
          << "op " << op;
    }
    if (op % 512 == 0) {
      ASSERT_EQ(flat.peak_usage(), ref.peak_usage()) << "op " << op;
      ASSERT_EQ(flat.num_events(), ref.num_events()) << "op " << op;
    }
  }

  // Drain everything: both representations must collapse to empty.
  rng.shuffle(placed.begin(), placed.end());
  for (const auto& [s, d, q] : placed) {
    flat.remove(s, d, q);
    ref.remove(s, d, q);
  }
  EXPECT_EQ(flat.num_events(), 0u);
  EXPECT_EQ(ref.num_events(), 0u);
  EXPECT_EQ(flat.peak_usage(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatProfileDifferential,
                         ::testing::Values<std::uint64_t>(11, 22, 33, 44, 55));

// Overloaded profiles (usage above capacity) still answer queries the
// same way the reference does: add() never checks capacity, and the
// search relies on queries being exact in that regime too.
TEST(FlatProfileDifferentialTest, OverloadedProfileAgrees) {
  Profile flat(2);
  ReferenceProfile ref(2);
  for (int i = 0; i < 5; ++i) {
    flat.add(Time{10}, Time{20}, 2);
    ref.add(Time{10}, Time{20}, 2);
  }
  for (Time t : {Time{0}, Time{5}, Time{9}, Time{10}, Time{15}, Time{29}, Time{30}, Time{31}}) {
    EXPECT_EQ(flat.usage_at(t), ref.usage_at(t)) << t;
    EXPECT_EQ(flat.earliest_feasible(t, Time{5}, 1), ref.earliest_feasible(t, Time{5}, 1))
        << t;
  }
  EXPECT_EQ(flat.peak_usage(), 10);
}

}  // namespace
}  // namespace mrcp::cp
