#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace aladdin {

void OnlineStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::Merge(const OnlineStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void Sample::Add(double x) {
  values_.push_back(x);
  dirty_ = true;
}

void Sample::EnsureSorted() const {
  if (dirty_) {
    std::sort(values_.begin(), values_.end());
    dirty_ = false;
  }
}

double Sample::mean() const {
  if (values_.empty()) return 0.0;
  double s = 0.0;
  for (double v : values_) s += v;
  return s / static_cast<double>(values_.size());
}

double Sample::min() const {
  EnsureSorted();
  return values_.empty() ? 0.0 : values_.front();
}

double Sample::max() const {
  EnsureSorted();
  return values_.empty() ? 0.0 : values_.back();
}

double Sample::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  EnsureSorted();
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(values_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return values_[lo] + (values_[hi] - values_[lo]) * frac;
}

std::vector<CdfPoint> BuildCdf(std::vector<double> samples,
                               std::size_t max_points) {
  std::vector<CdfPoint> cdf;
  if (samples.empty()) return cdf;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const std::size_t points = std::min(max_points, n);
  cdf.reserve(points);
  for (std::size_t k = 1; k <= points; ++k) {
    // Index of the k-th quantile knot (last sample <= that quantile).
    const std::size_t idx = k * n / points - 1;
    cdf.push_back({samples[idx],
                   static_cast<double>(idx + 1) / static_cast<double>(n)});
  }
  return cdf;
}

}  // namespace aladdin
