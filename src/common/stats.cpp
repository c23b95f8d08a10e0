#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace aladdin {

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
