#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace mrcp {
namespace {

TEST(RunningStat, Empty) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStat, SingleValue) {
  RunningStat s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStat, KnownMeanAndVariance) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic set is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, MergeMatchesSequential) {
  RunningStat all;
  RunningStat a;
  RunningStat b;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a;
  a.add(1.0);
  a.add(3.0);
  RunningStat empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  RunningStat b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(TCritical, KnownValues) {
  EXPECT_NEAR(t_critical(0.95, 1), 12.706, 1e-3);
  EXPECT_NEAR(t_critical(0.95, 10), 2.228, 1e-3);
  EXPECT_NEAR(t_critical(0.95, 30), 2.042, 1e-3);
  EXPECT_NEAR(t_critical(0.95, 1000), 1.960, 1e-3);
  EXPECT_NEAR(t_critical(0.99, 10), 3.169, 1e-3);
  EXPECT_NEAR(t_critical(0.90, 10), 1.812, 1e-3);
}

TEST(ConfidenceIntervalTest, SingleSampleHasZeroWidth) {
  const auto ci = confidence_interval(std::vector<double>{4.2});
  EXPECT_DOUBLE_EQ(ci.mean, 4.2);
  EXPECT_DOUBLE_EQ(ci.half_width, 0.0);
}

TEST(ConfidenceIntervalTest, KnownHalfWidth) {
  // Five values with mean 10, sd sqrt(2.5); se = sqrt(0.5);
  // t(0.975, df=4) = 2.776.
  const std::vector<double> v{8, 9, 10, 11, 12};
  const auto ci = confidence_interval(v);
  EXPECT_DOUBLE_EQ(ci.mean, 10.0);
  EXPECT_NEAR(ci.half_width, 2.776 * std::sqrt(2.5 / 5.0), 1e-3);
  EXPECT_EQ(ci.n, 5u);
}

TEST(ConfidenceIntervalTest, RelativeWidth) {
  ConfidenceInterval ci;
  ci.mean = 100.0;
  ci.half_width = 5.0;
  EXPECT_DOUBLE_EQ(ci.relative(), 0.05);
  ci.mean = 0.0;
  EXPECT_DOUBLE_EQ(ci.relative(), 0.0);
}

TEST(ConfidenceIntervalTest, IdenticalValuesZeroWidth) {
  const auto ci = confidence_interval(std::vector<double>{3, 3, 3, 3});
  EXPECT_DOUBLE_EQ(ci.half_width, 0.0);
}

TEST(FormatCi, Renders) {
  ConfidenceInterval ci;
  ci.mean = 1.2345;
  ci.half_width = 0.01;
  EXPECT_EQ(format_ci(ci, 2), "1.23 ±0.01");
}

TEST(PercentileNearestRank, PicksTheNearestRankSample) {
  EXPECT_EQ(percentile_nearest_rank({}, 0.5), 0.0);
  EXPECT_EQ(percentile_nearest_rank({7.0}, 0.99), 7.0);
  EXPECT_EQ(percentile_nearest_rank({4.0, 1.0, 3.0, 2.0}, 0.5), 2.0);
  EXPECT_EQ(percentile_nearest_rank({4.0, 1.0, 3.0, 2.0}, 1.0), 4.0);
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  // 0.99 * 1000 is 990 up to rounding: ten samples stay above the p99.
  EXPECT_EQ(percentile_nearest_rank(v, 0.99), 990.0);
  EXPECT_EQ(percentile_nearest_rank(v, 0.5), 500.0);
  EXPECT_EQ(percentile_nearest_rank(v, 0.001), 1.0);
}

}  // namespace
}  // namespace mrcp
