// Wall-clock stopwatch used to measure the scheduling overhead metric O.
//
// The paper measures O with Java's System.nanoTime(); we use
// steady_clock, which has the same monotonic semantics.
#pragma once

#include <algorithm>
#include <chrono>

namespace mrcp {

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  void reset() { start_ = std::chrono::steady_clock::now(); }

  /// Elapsed time in seconds.
  double elapsed_seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

  /// Elapsed time in nanoseconds.
  std::int64_t elapsed_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// An absolute point in wall-clock time, fixed at construction. Unlike a
/// Stopwatch budget (elapsed vs. a per-phase allowance), a Deadline is
/// shared: passing the same Deadline through several phases makes them
/// jointly respect one cutoff. Used as the degraded-mode hard watchdog
/// (docs/degraded_mode.md).
class Deadline {
 public:
  explicit Deadline(double seconds_from_now) {
    // steady_clock counts int64 nanoseconds (about 292 years): a span
    // converted past that range would overflow into the past and expire
    // the deadline at once. So a span of kNeverSeconds or more (or NaN)
    // never expires, and a negative span is clamped to "already expired".
    if (!(seconds_from_now < kNeverSeconds)) return;
    at_ = std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(std::max(seconds_from_now, 0.0)));
  }

  static constexpr double kNeverSeconds = 1e9;  ///< about 31.7 years

  bool expired() const { return std::chrono::steady_clock::now() >= at_; }

  /// Seconds until expiry; negative once expired.
  double remaining_seconds() const {
    return std::chrono::duration<double>(at_ - std::chrono::steady_clock::now())
        .count();
  }

 private:
  std::chrono::steady_clock::time_point at_ =
      std::chrono::steady_clock::time_point::max();
};

}  // namespace mrcp
