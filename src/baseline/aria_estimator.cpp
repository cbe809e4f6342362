#include "baseline/aria_estimator.h"

#include <algorithm>

#include "common/check.h"

namespace mrcp::baseline {

PhaseStats PhaseStats::of(const std::vector<Time>& durations) {
  PhaseStats s;
  for (Time d : durations) s.add(d);
  return s;
}

Time completion_upper_bound(const std::vector<Time>& durations, int slots) {
  const PhaseStats s = PhaseStats::of(durations);
  return aria_completion_estimate(s, slots, AriaBound::kUpper);
}

Time aria_completion_estimate(const PhaseStats& stats, int slots,
                              AriaBound bound) {
  if (stats.empty()) return Time{0};
  MRCP_CHECK(slots >= 1);
  if (bound == AriaBound::kUpper) {
    // Graham bound: ceil((sum - max) / slots) + max.
    return ceil_div(stats.sum - stats.max, slots) + stats.max;
  }
  const Time avg = ceil_div(stats.sum, stats.count);
  // T_low = N*avg/n_slots, T_up = (N-1)*avg/n_slots + max (Verma et al.).
  const Time t_low = ceil_div(stats.sum, slots);
  const Time t_up = ceil_div((stats.count - 1) * avg, slots) + stats.max;
  return (t_low + t_up) / 2;
}

Time aria_completion_estimate(const std::vector<Time>& durations, int slots,
                              AriaBound bound) {
  return aria_completion_estimate(PhaseStats::of(durations), slots, bound);
}

int min_slots_for_budget(const std::vector<Time>& durations, Time budget,
                         int max_slots) {
  return min_slots_for_estimate(PhaseStats::of(durations), budget, max_slots,
                                AriaBound::kUpper);
}

int min_slots_for_estimate(const PhaseStats& stats, Time budget, int max_slots,
                           AriaBound bound) {
  if (stats.empty()) return 0;
  MRCP_CHECK(max_slots >= 1);
  if (budget <= Time{0}) return 0;
  if (bound == AriaBound::kUpper) {
    if (budget < stats.max) return 0;  // unbeatable even with infinite slots
    if (budget >= stats.sum) return 1;
    const Time slack = budget - stats.max;
    if (slack <= Time{0}) return 0;
    int n = static_cast<int>((stats.sum - stats.max + slack - Time{1}) / slack);
    n = std::max(n, 1);
    while (n <= max_slots &&
           aria_completion_estimate(stats, n, bound) > budget) {
      ++n;
    }
    if (n > max_slots) return 0;
    return n;
  }
  // Average estimate: non-increasing in slots; binary search the smallest
  // feasible count.
  if (aria_completion_estimate(stats, max_slots, bound) > budget) return 0;
  int lo = 1;
  int hi = max_slots;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (aria_completion_estimate(stats, mid, bound) <= budget) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

int min_slots_for_estimate(const std::vector<Time>& durations, Time budget,
                           int max_slots, AriaBound bound) {
  return min_slots_for_estimate(PhaseStats::of(durations), budget, max_slots,
                                bound);
}

SlotProfile minimal_slot_profile(const PhaseStats& map_stats,
                                 const PhaseStats& reduce_stats, Time now,
                                 Time deadline, int max_map_slots,
                                 int max_reduce_slots, AriaBound bound) {
  SlotProfile best;
  best.map_slots = map_stats.empty() ? 0 : max_map_slots;
  best.reduce_slots = reduce_stats.empty() ? 0 : max_reduce_slots;
  best.feasible = false;

  const Time budget = deadline - now;
  if (budget <= Time{0}) return best;

  if (map_stats.empty()) {
    const int nr =
        min_slots_for_estimate(reduce_stats, budget, max_reduce_slots, bound);
    if (nr > 0 || reduce_stats.empty()) {
      best.map_slots = 0;
      best.reduce_slots = nr;
      best.feasible = true;
    }
    return best;
  }
  if (reduce_stats.empty()) {
    const int nm =
        min_slots_for_estimate(map_stats, budget, max_map_slots, bound);
    if (nm > 0) {
      best.map_slots = nm;
      best.reduce_slots = 0;
      best.feasible = true;
    }
    return best;
  }

  // Sweep map slots; for each, the reduce phase gets the residual budget.
  // Both estimates are non-increasing in the slot count, so the residual
  // never shrinks as nm grows and the smallest feasible nr never grows:
  // the feasible nm form a suffix [nm0, max], found by binary search, and
  // nr is searched once at nm0 and then only walked down. The result is
  // the same smallest-nm minimum of nm + nr as a full sweep.
  if (max_map_slots < 1) return best;
  const auto map_estimate = [&](int nm) {
    return aria_completion_estimate(map_stats, nm, bound);
  };
  const Time reduce_floor =
      aria_completion_estimate(reduce_stats, max_reduce_slots, bound);
  const auto nm_feasible = [&](int nm) {
    return map_estimate(nm) + reduce_floor <= budget;
  };
  if (!nm_feasible(max_map_slots)) return best;
  int lo = 1;
  int hi = max_map_slots;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (nm_feasible(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  int nr = min_slots_for_estimate(reduce_stats, budget - map_estimate(lo),
                                  max_reduce_slots, bound);
  int best_total = lo + nr;
  best.map_slots = lo;
  best.reduce_slots = nr;
  best.feasible = true;
  // A later nm needs at least one reduce slot, so it can beat best_total
  // only while nm + 1 < best_total. Once the reduce phase needs a single
  // slot, growing nm only raises the total.
  for (int nm = lo + 1; nm <= max_map_slots && nr > 1; ++nm) {
    if (nm + 1 >= best_total) break;
    const Time residual = budget - map_estimate(nm);
    while (nr > 1 &&
           aria_completion_estimate(reduce_stats, nr - 1, bound) <= residual) {
      --nr;
    }
    if (nm + nr < best_total) {
      best_total = nm + nr;
      best.map_slots = nm;
      best.reduce_slots = nr;
    }
  }
  return best;
}

SlotProfile minimal_slot_profile(const std::vector<Time>& map_durations,
                                 const std::vector<Time>& reduce_durations,
                                 Time now, Time deadline, int max_map_slots,
                                 int max_reduce_slots, AriaBound bound) {
  return minimal_slot_profile(PhaseStats::of(map_durations),
                              PhaseStats::of(reduce_durations), now, deadline,
                              max_map_slots, max_reduce_slots, bound);
}

}  // namespace mrcp::baseline
