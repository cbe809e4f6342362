// Core scalar types shared by every mrcp library.
//
// All simulated and scheduled time in this codebase is expressed in integer
// *ticks*. A tick is one millisecond: the Facebook-derived workload of the
// paper (Table 4) draws task execution times from LogNormal distributions in
// milliseconds, while the synthetic workload (Table 3) is specified in
// seconds; using ms ticks represents both exactly and keeps the CP engine's
// domains integral (the paper's CP Optimizer likewise works on discrete
// interval variables without enumerating time).
//
// `Ticks` is a strong type, not an integer alias. The PR-6 class of bug —
// a raw count in the wrong unit flowing silently into tick arithmetic —
// is a compile error now: ticks add and subtract with ticks, scale by a
// dimensionless integer, and divide by ticks to yield a dimensionless
// ratio, but ticks*ticks does not exist (the unit ticks^2 is always a
// mistake) and seconds cross the boundary only through seconds_to_ticks /
// ticks_to_seconds. Construction from a raw count is explicit
// (`Time{250}`), so every unit entry point is visible to review and to
// the mrcp-lint raw-time-literal rule (docs/static_analysis.md).
#pragma once

#include <cstdint>
#include <limits>
#include <ostream>

namespace mrcp {

/// Time in integer ticks (1 tick = 1 ms). Wrapper over int64 with
/// dimension-checked arithmetic; see the header comment.
class Ticks {
 public:
  constexpr Ticks() = default;
  constexpr explicit Ticks(std::int64_t count) : count_(count) {}

  /// Raw tick count. The escape hatch into integer space — use it for
  /// hashing/serialization, not to smuggle arithmetic past the type.
  constexpr std::int64_t count() const { return count_; }

  constexpr Ticks& operator+=(Ticks o) {
    count_ += o.count_;
    return *this;
  }
  constexpr Ticks& operator-=(Ticks o) {
    count_ -= o.count_;
    return *this;
  }

  friend constexpr Ticks operator+(Ticks a, Ticks b) {
    return Ticks{a.count_ + b.count_};
  }
  friend constexpr Ticks operator-(Ticks a, Ticks b) {
    return Ticks{a.count_ - b.count_};
  }
  constexpr Ticks operator-() const { return Ticks{-count_}; }

  // Scaling by a dimensionless integer. Ticks*Ticks is deliberately not
  // provided; neither is any double overload (go through ticks_to_seconds).
  friend constexpr Ticks operator*(Ticks a, std::int64_t k) {
    return Ticks{a.count_ * k};
  }
  friend constexpr Ticks operator*(std::int64_t k, Ticks a) {
    return Ticks{k * a.count_};
  }
  friend constexpr Ticks operator/(Ticks a, std::int64_t k) {
    return Ticks{a.count_ / k};
  }
  /// ticks / ticks is a dimensionless ratio (truncating).
  friend constexpr std::int64_t operator/(Ticks a, Ticks b) {
    return a.count_ / b.count_;
  }
  friend constexpr Ticks operator%(Ticks a, Ticks b) {
    return Ticks{a.count_ % b.count_};
  }

  friend constexpr bool operator==(Ticks a, Ticks b) = default;
  friend constexpr auto operator<=>(Ticks a, Ticks b) = default;

  /// Streams the raw count (what an int64 Time printed before).
  friend std::ostream& operator<<(std::ostream& os, Ticks t) {
    return os << t.count_;
  }

 private:
  std::int64_t count_ = 0;
};

using Time = Ticks;

/// Number of ticks per second; used when converting Table 3 parameters
/// (given in seconds) into tick space.
inline constexpr std::int64_t kTicksPerSecond = 1000;

/// Sentinel for "no time" / unset.
inline constexpr Time kNoTime{std::numeric_limits<std::int64_t>::min()};

/// Largest representable schedule horizon. Domains of CP start-time
/// variables are clamped to [0, kMaxTime].
inline constexpr Time kMaxTime{std::numeric_limits<std::int64_t>::max() / 4};

/// Zero ticks; the natural origin/accumulator seed (`Time{}` works too,
/// a named constant reads better in comparisons).
inline constexpr Time kTimeZero{0};

/// Convert seconds (double) to ticks, rounding to nearest with halves
/// away from zero (std::llround semantics, usable in constexpr context).
/// Negative inputs (slack/lateness deltas) round symmetrically: the old
/// `x + 0.5` truncation rounded -0.5 ticks up to 0 instead of to -1.
/// Results are clamped to [-kMaxTime, kMaxTime] so an out-of-range
/// double cannot overflow the Time domain.
constexpr Time seconds_to_ticks(double seconds) {
  const double scaled = seconds * static_cast<double>(kTicksPerSecond);
  if (scaled >= static_cast<double>(kMaxTime.count())) return kMaxTime;
  if (scaled <= -static_cast<double>(kMaxTime.count())) return -kMaxTime;
  return scaled >= 0.0 ? Time{static_cast<std::int64_t>(scaled + 0.5)}
                       : Time{static_cast<std::int64_t>(scaled - 0.5)};
}

/// Convert a whole number of seconds to ticks, exactly.
constexpr Time seconds_to_ticks(std::int64_t seconds) {
  return Time{seconds * kTicksPerSecond};
}

/// Saturating tick addition: the result is clamped to [-kMaxTime,
/// kMaxTime] instead of wrapping. Delays (the park-retry fold) are added
/// to open-ended simulation times; near the horizon plain `+` is signed
/// overflow (UB).
/// Inputs beyond the clamp range (e.g. a kNoTime sentinel is a caller
/// bug, but int64 extremes in general) are clamped first, so the inner
/// sum cannot overflow: |a| + |b| <= 2 * kMaxTime < int64 max.
constexpr Ticks saturating_add(Ticks a, Ticks b) {
  const auto clamp = [](std::int64_t v) {
    if (v > kMaxTime.count()) return kMaxTime.count();
    if (v < -kMaxTime.count()) return -kMaxTime.count();
    return v;
  };
  return Ticks{clamp(clamp(a.count()) + clamp(b.count()))};
}

/// Ceiling division of a non-negative tick quantity by a positive
/// dimensionless count (e.g. total work spread over k slots). Lives here
/// because the epsilon term needs the raw count — call sites stay free
/// of unit-escaping arithmetic.
constexpr Ticks ceil_div(Ticks t, std::int64_t k) {
  return Ticks{(t.count() + k - 1) / k};
}

/// Baseline machine speed: a resource with speed 1000 permille runs tasks
/// at exactly their base duration.
inline constexpr int kBaseSpeedPermille = 1000;

/// Scale a base task duration by a machine speed factor expressed in
/// permille of the baseline (500 = half speed, 2000 = double speed).
/// Rounds up, so a scaled duration never rounds down to zero and a slower
/// machine never finishes early. speed == 1000 is an exact identity, which
/// keeps homogeneous clusters bit-identical to the unscaled model. The
/// multiply is split as base = q*speed + r to stay clear of int64 overflow
/// for any duration below kMaxTime; out-of-range results saturate there.
constexpr Ticks scale_duration(Ticks base, int speed_permille) {
  if (speed_permille == kBaseSpeedPermille) return base;
  const std::int64_t b = base.count();
  const std::int64_t s = speed_permille;
  const std::int64_t q = b / s;
  const std::int64_t r = b % s;
  if (q > kMaxTime.count() / kBaseSpeedPermille) return kMaxTime;
  const std::int64_t scaled =
      q * kBaseSpeedPermille + (r * kBaseSpeedPermille + s - 1) / s;
  if (scaled > kMaxTime.count()) return kMaxTime;
  return Ticks{scaled < 1 && b > 0 ? 1 : scaled};
}

/// Convert ticks to seconds.
constexpr double ticks_to_seconds(Time t) {
  return static_cast<double>(t.count()) / static_cast<double>(kTicksPerSecond);
}

/// Identifier types. 32-bit indices are ample (workloads are <10^6 jobs).
using JobId = std::int32_t;
using TaskId = std::int32_t;      ///< Index of a task *within its job*.
using ResourceId = std::int32_t;  ///< Index of a resource in the cluster.

inline constexpr JobId kNoJob = -1;
inline constexpr ResourceId kNoResource = -1;

}  // namespace mrcp
