#include "common/stats.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace mrcp {

void RunningStat::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

void RunningStat::merge(const RunningStat& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n_total = na + nb;
  mean_ += delta * nb / n_total;
  m2_ += other.m2_ + delta * delta * na * nb / n_total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

namespace {
// 97.5th percentile of Student's t (two-sided 95%) for df = 1..30.
constexpr std::array<double, 30> kT975 = {
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
// 95th percentile (two-sided 90%).
constexpr std::array<double, 30> kT95 = {
    6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
    1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
    1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697};
// 99.5th percentile (two-sided 99%).
constexpr std::array<double, 30> kT995 = {
    63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
    3.106,  3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
    2.831,  2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750};
}  // namespace

double t_critical(double confidence, std::size_t df) {
  MRCP_CHECK(df >= 1);
  const std::array<double, 30>* table = nullptr;
  double z = 1.960;
  if (confidence >= 0.985) {
    table = &kT995;
    z = 2.576;
  } else if (confidence >= 0.925) {
    table = &kT975;
    z = 1.960;
  } else {
    table = &kT95;
    z = 1.645;
  }
  if (df <= 30) return (*table)[df - 1];
  return z;
}

double ConfidenceInterval::relative() const {
  if (mean == 0.0) return 0.0;
  return half_width / std::abs(mean);
}

ConfidenceInterval confidence_interval(const RunningStat& s, double confidence) {
  ConfidenceInterval ci;
  ci.mean = s.mean();
  ci.n = s.count();
  if (s.count() < 2) {
    ci.half_width = 0.0;
    return ci;
  }
  const double se = s.stddev() / std::sqrt(static_cast<double>(s.count()));
  ci.half_width = t_critical(confidence, s.count() - 1) * se;
  return ci;
}

ConfidenceInterval confidence_interval(const std::vector<double>& values,
                                       double confidence) {
  RunningStat s;
  for (double v : values) s.add(v);
  return confidence_interval(s, confidence);
}

double percentile_nearest_rank(std::vector<double> values, double p) {
  MRCP_CHECK(p > 0.0 && p <= 1.0);
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // The epsilon keeps p * n that is an integer up to rounding (0.99 *
  // 1000) from rounding up one rank.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size()) - 1e-9));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

std::string format_ci(const ConfidenceInterval& ci, int precision) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.*f ±%.*f", precision, ci.mean, precision,
                ci.half_width);
  return buf;
}

}  // namespace mrcp
