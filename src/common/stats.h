// Online statistics and confidence intervals for simulation output analysis.
//
// The paper reports each metric as a mean over independent replications
// with a 95% confidence interval (§VI.A: T within ±1%, O within ±5-7%).
// RunningStat accumulates per-replication values with Welford's algorithm;
// ConfidenceInterval turns them into mean ± half-width using Student's t.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace mrcp {

/// Numerically stable accumulator for mean/variance/min/max.
class RunningStat {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance (0 if fewer than 2 samples).
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const RunningStat& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Two-sided Student-t critical value for the given confidence level
/// (e.g. 0.95) and degrees of freedom. Exact table for df <= 30, normal
/// approximation beyond.
double t_critical(double confidence, std::size_t df);

/// A mean with a confidence-interval half width.
struct ConfidenceInterval {
  double mean = 0.0;
  double half_width = 0.0;
  std::size_t n = 0;

  /// Half width as a fraction of the mean (0 when mean == 0).
  double relative() const;
};

/// Build a CI at `confidence` (default 95%) from replication values.
ConfidenceInterval confidence_interval(const RunningStat& s,
                                       double confidence = 0.95);

/// Convenience: CI directly from a vector of per-replication values.
ConfidenceInterval confidence_interval(const std::vector<double>& values,
                                       double confidence = 0.95);

/// Nearest-rank percentile of `values` for p in (0, 1]: the smallest
/// sample with at least p * n samples at or below it (p = 0.99 over 1000
/// samples leaves 10 above it). 0 when `values` is empty.
double percentile_nearest_rank(std::vector<double> values, double p);

/// Format "mean ± hw" with the given precision.
std::string format_ci(const ConfidenceInterval& ci, int precision = 3);

}  // namespace mrcp
