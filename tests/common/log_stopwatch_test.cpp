#include <gtest/gtest.h>

#include <limits>
#include <thread>

#include "common/log.h"
#include "common/stopwatch.h"

namespace mrcp {
namespace {

TEST(Log, LevelThresholdRoundTrip) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Messages below the threshold are discarded (no crash, no output check
  // needed beyond exercising the path).
  MRCP_LOG_DEBUG("discarded %d", 42);
  MRCP_LOG_ERROR("emitted %s", "once");
  set_log_level(before);
}

TEST(Log, AllLevelsExercisable) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kTrace);
  MRCP_LOG_TRACE("t");
  MRCP_LOG_DEBUG("d");
  MRCP_LOG_INFO("i");
  MRCP_LOG_WARN("w");
  MRCP_LOG_ERROR("e");
  set_log_level(before);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = sw.elapsed_seconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 5.0);
  EXPECT_GE(sw.elapsed_ns(), 15'000'000);
}

TEST(Stopwatch, ResetRestarts) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  sw.reset();
  EXPECT_LT(sw.elapsed_seconds(), 0.015);
}

TEST(Stopwatch, Monotonic) {
  Stopwatch sw;
  double prev = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double now = sw.elapsed_seconds();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST(Deadline, ExpiresAfterItsSpan) {
  EXPECT_TRUE(Deadline(0.0).expired());
  EXPECT_TRUE(Deadline(-1.0).expired());
  const Deadline later(60.0);
  EXPECT_FALSE(later.expired());
  EXPECT_GT(later.remaining_seconds(), 50.0);
}

TEST(Deadline, HugeSpanNeverExpires) {
  // 64 x a 1e12 s solver budget is 6.4e22 ns, far past the clock's int64
  // range: converted as is it wrapped into the past and every solve under
  // it aborted at once.
  for (const double span : {Deadline::kNeverSeconds, 64e12, 1e300,
                            std::numeric_limits<double>::infinity()}) {
    const Deadline never(span);
    EXPECT_FALSE(never.expired()) << span;
    EXPECT_GT(never.remaining_seconds(), 1e9) << span;
  }
}

}  // namespace
}  // namespace mrcp
