#include "src/util/stats.h"

#include <algorithm>
#include <cmath>

namespace smd::util {

void Accumulator::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double Accumulator::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double rel_err(double a, double b, double floor) {
  const double denom = std::max({std::fabs(a), std::fabs(b), floor});
  return std::fabs(a - b) / denom;
}

}  // namespace smd::util
