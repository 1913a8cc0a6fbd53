// Lightweight statistics accumulators used by the simulator and benches.
#pragma once

#include <cstddef>
#include <limits>

namespace smd::util {

/// Streaming mean/variance/min/max accumulator (Welford).
class Accumulator {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< Sample variance (n-1 denominator).
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Relative error |a-b| / max(|a|,|b|,floor).
double rel_err(double a, double b, double floor = 1e-12);

}  // namespace smd::util
