// Descriptive statistics used by the metrics pipeline and the trace
// generator's self-checks: exact percentiles over stored samples and
// empirical CDFs.
#pragma once

#include <cstddef>
#include <vector>

namespace aladdin {

// Stores every sample; supports exact order statistics. Used for latency
// distributions where p99 matters and sample counts are modest.
class Sample {
 public:
  void Add(double x);

  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  // Linear-interpolated percentile, p in [0, 100].
  [[nodiscard]] double Percentile(double p) const;
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

 private:
  // Kept sorted lazily: dirty_ marks an Add since the last sort, so repeated
  // Percentile calls don't re-sort.
  mutable std::vector<double> values_;
  mutable bool dirty_ = false;
  void EnsureSorted() const;
};

// Point on an empirical CDF: `fraction` of samples are <= `value`.
struct CdfPoint {
  double value = 0.0;
  double fraction = 0.0;
};

// Builds an empirical CDF reduced to at most `max_points` evenly spaced
// quantile knots — exactly what Fig. 8(a) plots (CDF of containers per app).
std::vector<CdfPoint> BuildCdf(std::vector<double> samples,
                               std::size_t max_points = 64);

}  // namespace aladdin
