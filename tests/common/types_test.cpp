// Boundary tests for the tick/second conversions in common/types.h.
//
// seconds_to_ticks must follow std::llround semantics: round to nearest,
// halves away from zero — in particular negative slack/lateness values
// round symmetrically with positive ones (the pre-fix `x + 0.5` cast
// truncated toward zero, mapping -0.5 ticks to 0 instead of -1).
#include "common/types.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace mrcp {
namespace {

TEST(SecondsToTicks, RoundsPositiveToNearest) {
  EXPECT_EQ(seconds_to_ticks(0.0), Time{0});
  EXPECT_EQ(seconds_to_ticks(1.0), Time{1000});
  EXPECT_EQ(seconds_to_ticks(0.0004), Time{0});
  EXPECT_EQ(seconds_to_ticks(0.0006), Time{1});
  EXPECT_EQ(seconds_to_ticks(1.2344), Time{1234});
  EXPECT_EQ(seconds_to_ticks(1.2346), Time{1235});
}

TEST(SecondsToTicks, HalfTickBoundaries) {
  // 0.0004999 s = 0.4999 ticks -> 0; 0.0005 s = 0.5 ticks -> 1 (half
  // away from zero), and symmetrically for negative inputs.
  EXPECT_EQ(seconds_to_ticks(0.0004999), Time{0});
  EXPECT_EQ(seconds_to_ticks(0.0005), Time{1});
  EXPECT_EQ(seconds_to_ticks(-0.0004999), Time{0});
  EXPECT_EQ(seconds_to_ticks(-0.0005), Time{-1});
  EXPECT_EQ(seconds_to_ticks(0.0015), Time{2});
  EXPECT_EQ(seconds_to_ticks(-0.0015), Time{-2});
}

TEST(SecondsToTicks, NegativeValuesRoundToNearest) {
  EXPECT_EQ(seconds_to_ticks(-1.0), Time{-1000});
  EXPECT_EQ(seconds_to_ticks(-0.0004), Time{0});
  EXPECT_EQ(seconds_to_ticks(-0.0006), Time{-1});
  EXPECT_EQ(seconds_to_ticks(-1.2344), Time{-1234});
  EXPECT_EQ(seconds_to_ticks(-1.2346), Time{-1235});
}

TEST(SecondsToTicks, ClampsToMaxTime) {
  EXPECT_EQ(seconds_to_ticks(1e300), kMaxTime);
  EXPECT_EQ(seconds_to_ticks(-1e300), -kMaxTime);
  // Exactly at the clamp edge (kMaxTime ticks expressed in seconds).
  const double edge = ticks_to_seconds(kMaxTime);
  EXPECT_EQ(seconds_to_ticks(edge), kMaxTime);
  EXPECT_EQ(seconds_to_ticks(-edge), -kMaxTime);
}

TEST(SecondsToTicks, RoundTripsWithTicksToSeconds) {
  for (Time t : {Time{0}, Time{1}, Time{999}, Time{1000}, Time{123456},
                 Time{-1}, Time{-999}, Time{-123456}}) {
    EXPECT_EQ(seconds_to_ticks(ticks_to_seconds(t)), t) << "t=" << t;
  }
}

TEST(SecondsToTicks, IsConstexpr) {
  static_assert(seconds_to_ticks(1.5) == Time{1500});
  static_assert(seconds_to_ticks(-0.0005) == Time{-1});
  static_assert(seconds_to_ticks(1e300) == kMaxTime);
  SUCCEED();
}

// The saturating arithmetic guards delay folds (the park retry): any
// overflow clamps to the time horizon instead of wrapping into UB (docs/crash_recovery.md
// relies on these being pure, too).

TEST(SaturatingAdd, PlainSumsAreExact) {
  EXPECT_EQ(saturating_add(Time{0}, Time{0}), Time{0});
  EXPECT_EQ(saturating_add(Time{1500}, Time{-500}), Time{1000});
  EXPECT_EQ(saturating_add(Time{-1200}, Time{-300}), Time{-1500});
}

TEST(SaturatingAdd, ClampsAtTheHorizon) {
  EXPECT_EQ(saturating_add(kMaxTime, Time{1}), kMaxTime);
  EXPECT_EQ(saturating_add(kMaxTime, kMaxTime), kMaxTime);
  EXPECT_EQ(saturating_add(-kMaxTime, Time{-1}), -kMaxTime);
  EXPECT_EQ(saturating_add(-kMaxTime, -kMaxTime), -kMaxTime);
  // One step inside the horizon stays exact; the next step saturates.
  const Time edge = kMaxTime - Time{1};
  EXPECT_EQ(saturating_add(edge, Time{1}), kMaxTime);
  EXPECT_EQ(saturating_add(edge, Time{2}), kMaxTime);
}

TEST(SaturatingAdd, Int64ExtremesDoNotWrap) {
  // Raw int64 extremes (outside the Time domain proper) are clamped
  // before the sum, so the arithmetic cannot overflow.
  const Time lo{std::numeric_limits<std::int64_t>::min()};
  const Time hi{std::numeric_limits<std::int64_t>::max()};
  EXPECT_EQ(saturating_add(hi, hi), kMaxTime);
  EXPECT_EQ(saturating_add(lo, lo), -kMaxTime);
  EXPECT_EQ(saturating_add(hi, lo), Time{0});
}

TEST(SaturatingArithmetic, IsConstexpr) {
  static_assert(saturating_add(kMaxTime, kMaxTime) == kMaxTime);
  static_assert(saturating_add(Time{3}, Time{6}) == Time{9});
  SUCCEED();
}

}  // namespace
}  // namespace mrcp
