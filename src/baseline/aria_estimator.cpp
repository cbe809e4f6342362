#include "baseline/aria_estimator.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace mrcp::baseline {

namespace {

/// One phase's ARIA estimate with its per-phase constants computed once:
///   kUpper:   e(n) = ceil(first / n) + max,  first = sum - max
///   kAverage: e(n) = (ceil(first / n) + ceil(second / n) + max) / 2,
///             first = sum, second = (count - 1) * ceil(sum / count)
/// Write q for the divisor (1 or 2), c(n) for the ceiling sum and
/// work = first + second. Then e(n) <= budget iff
/// c(n) <= q * budget + q - 1 - max, and c(n) >= work / n; the searches
/// below rest on these two facts. Slot counts are 64-bit here so that a
/// cap of INT_MAX has a one-past-the-end.
class PhaseEstimate {
 public:
  PhaseEstimate(const PhaseStats& stats, AriaBound bound)
      : average_(bound == AriaBound::kAverage), max_(stats.max.count()) {
    if (average_) {
      // T_low = N*avg/n, T_up = (N-1)*avg/n + max (Verma et al.).
      first_ = stats.sum.count();
      second_ = (stats.count - 1) * ceil_div(stats.sum, stats.count).count();
    } else {
      // Graham bound: ceil((sum - max) / n) + max.
      first_ = stats.sum.count() - max_;
    }
  }

  /// The estimate on `slots` slots. It remembers its last answer, because
  /// a search ends by probing the count it returns and its caller then
  /// reads the estimate there.
  Time at(std::int64_t slots) const {
    if (slots != memo_slots_) {
      memo_slots_ = slots;
      memo_ = average_ ? (ceil_div(Time{first_}, slots) +
                          ceil_div(Time{second_}, slots) + Time{max_}) /
                             2
                       : ceil_div(Time{first_}, slots) + Time{max_};
    }
    return memo_;
  }

  std::int64_t divisor() const { return average_ ? 2 : 1; }
  std::int64_t work() const { return first_ + second_; }
  std::int64_t max() const { return max_; }

  /// A slot count below which no count fits `budget`: ceil(work / T) for
  /// the ceiling-sum budget T, or kNever when no count fits at all. Exact
  /// for kUpper, whose ceiling sum is a single ceiling.
  std::int64_t lower_slots(Time budget) const {
    // e(1) <= work + max; returning here also keeps T from overflowing.
    if (budget.count() >= work() + max_) return 1;
    const std::int64_t t = divisor() * budget.count() + divisor() - 1 - max_;
    if (work() == 0) return t >= 0 ? 1 : kNever;
    if (t <= 0) return kNever;
    return (work() + t - 1) / t;
  }

  static constexpr std::int64_t kNever =
      std::numeric_limits<std::int64_t>::max();

 private:
  bool average_;
  std::int64_t max_;
  std::int64_t first_ = 0;
  std::int64_t second_ = 0;
  mutable std::int64_t memo_slots_ = 0;
  mutable Time memo_{};
};

/// Smallest n in [lo, end) with e.at(n) <= budget, or `end` when none
/// fits there. Requires every n < lo to miss the budget; `end` is either
/// known to fit or one past the slot cap. Probes lo, lo+1, lo+3, lo+7, ...
/// and then bisects, so a start at the answer costs one estimate and a
/// start next to it two or three. The estimate is non-increasing in n,
/// so the answer does not depend on `lo` beyond the precondition.
std::int64_t first_fit(const PhaseEstimate& e, Time budget, std::int64_t lo,
                       std::int64_t end) {
  lo = std::min(lo, end);
  const std::int64_t base = lo;
  for (std::int64_t offset = 0; base + offset < end; offset = 2 * offset + 1) {
    const std::int64_t probe = base + offset;
    if (e.at(probe) <= budget) {
      end = probe;
      break;
    }
    lo = probe + 1;
  }
  while (lo < end) {
    const std::int64_t mid = lo + (end - lo) / 2;
    if (e.at(mid) <= budget) {
      end = mid;
    } else {
      lo = mid + 1;
    }
  }
  return end;
}

/// Smallest n in [1, cap] with e.at(n) <= budget; 0 when none fits.
int smallest_fitting(const PhaseEstimate& e, Time budget, int cap) {
  const std::int64_t n =
      first_fit(e, budget, e.lower_slots(budget), std::int64_t{cap} + 1);
  return n > cap ? 0 : static_cast<int>(n);
}

__extension__ typedef __int128 Wide;

/// Lower bound h(n) = n + b / (D - a/n) on n + nr(n), the total of a
/// map-slot count n and the fewest reduce slots that fit the residual
/// budget - g(n) (proof in docs/baseline.md): a and b are the map and
/// reduce work, D = q * budget + 2 (q - 1) - max_map - max_reduce. With
/// u = D n - a > 0, h is convex and stops falling once u^2 >= a b. The
/// tests are exact in 128-bit integers; a u too large to square safely
/// rules nothing out.
class TotalBound {
 public:
  TotalBound(const PhaseEstimate& map, const PhaseEstimate& reduce,
             Time budget)
      : a_(map.work()),
        b_(reduce.work()),
        d_(static_cast<Wide>(map.divisor()) * budget.count() +
           2 * (map.divisor() - 1) - map.max() - reduce.max()) {}

  /// True when no count >= n has a total below `total`: h(n) >= total
  /// and h does not fall after n.
  bool rules_out_from(std::int64_t n, std::int64_t total) const {
    const Wide u = d_ * n - a_;
    if (u <= 0 || u >= (Wide{1} << 62)) return false;
    if (u * u < a_ * b_) return false;
    return b_ * n >= static_cast<Wide>(total - n) * u;
  }

 private:
  Wide a_;
  Wide b_;
  Wide d_;
};

}  // namespace

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
  return PhaseEstimate(stats, bound).at(slots);
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
  return smallest_fitting(PhaseEstimate(stats, bound), budget, max_slots);
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

  // Write g(nm) and f(nr) for the map and reduce estimates, M and R for
  // the slot caps and nr(nm) for the fewest reduce slots that fit the
  // residual budget - g(nm). Both estimates are non-increasing, so the
  // feasible nm form a suffix [nm0, M] and nr(nm) never grows with nm
  // (docs/baseline.md has the full argument).
  if (max_map_slots < 1) return best;
  MRCP_CHECK(max_reduce_slots >= 1);
  const PhaseEstimate map(map_stats, bound);
  const PhaseEstimate reduce(reduce_stats, bound);
  const int nm0 = smallest_fitting(
      map, budget - reduce.at(max_reduce_slots), max_map_slots);
  if (nm0 == 0) return best;
  const auto reduce_slots_for = [&](std::int64_t nm, std::int64_t fit) {
    const Time residual = budget - map.at(nm);
    return first_fit(reduce, residual, reduce.lower_slots(residual), fit);
  };
  std::int64_t nm = nm0;
  std::int64_t nr = reduce_slots_for(nm, max_reduce_slots);
  std::int64_t best_total = nm + nr;
  best.map_slots = nm0;
  best.reduce_slots = static_cast<int>(nr);
  best.feasible = true;

  // Only the smallest nm of each value of nr(nm) can hold the minimum, so
  // the walk jumps from one such nm to the next: the first nm whose
  // residual fits nr - 1 reduce slots. It stops once no later nm can
  // strictly beat best_total, which also keeps the smallest nm among
  // equal totals, as a full sweep does.
  const TotalBound total_bound(map, reduce, budget);
  while (nr > 1) {
    const Time map_budget = budget - reduce.at(nr - 1);
    nm = first_fit(map, map_budget,
                   std::max(map.lower_slots(map_budget), nm + 1),
                   std::int64_t{max_map_slots} + 1);
    if (nm > max_map_slots || nm + 1 >= best_total ||
        total_bound.rules_out_from(nm, best_total)) {
      break;
    }
    nr = reduce_slots_for(nm, nr - 1);
    if (nm + nr < best_total) {
      best_total = nm + nr;
      best.map_slots = static_cast<int>(nm);
      best.reduce_slots = static_cast<int>(nr);
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
