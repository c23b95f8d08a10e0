#include "core/weights.h"

#include <algorithm>
#include <array>
#include <limits>

namespace aladdin::core {

namespace {

struct ClassRange {
  std::int64_t min_flow = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_flow = 0;
  bool present = false;
};

using ClassRangeTable = std::array<ClassRange, cluster::kPriorityClasses>;

// Eq. 3: bucket flow magnitudes by priority class. The walk reads the
// application table, not the container table: an application's containers
// are isomorphic copies of its request and priority (the IL premise,
// §IV.A), and every application owns at least one container, so the ranges
// are exactly those of a per-container walk.
ClassRangeTable ClassRanges(const trace::Workload& workload) {
  ClassRangeTable ranges{};
  for (const cluster::Application& app : workload.applications()) {
    const auto k = static_cast<std::size_t>(
        std::clamp<cluster::Priority>(app.priority, 0,
                                      cluster::kPriorityClasses - 1));
    auto& r = ranges[k];
    r.present = true;
    const std::int64_t flow = app.request.cpu_millis();
    r.min_flow = std::min(r.min_flow, flow);
    r.max_flow = std::max(r.max_flow, flow);
  }
  return ranges;
}

}  // namespace

PriorityWeights ComputeMinimalWeights(const trace::Workload& workload) {
  const auto ranges = ClassRanges(workload);
  PriorityWeights weights;
  // analyze:allow(A103) weight_base 0 only; O(priority classes)
  weights.weight.assign(ranges.size(), 1);  // Eq. 4: w_1 = 1
  std::int64_t prev_weight = 1;
  std::int64_t prev_max = 0;
  for (std::size_t k = 0; k < ranges.size(); ++k) {
    if (k == 0) {
      prev_max = ranges[k].present ? ranges[k].max_flow : 0;
      continue;
    }
    std::int64_t w = prev_weight;
    if (ranges[k].present && prev_max > 0) {
      // Smallest integer with w·min(x_k) > prev_weight·max(x_{k-1}).
      w = (prev_weight * prev_max) / ranges[k].min_flow + 1;
      w = std::max(w, prev_weight);
    }
    weights.weight[k] = w;
    prev_weight = w;
    if (ranges[k].present) prev_max = ranges[k].max_flow;
  }
  return weights;
}

PriorityWeights MakeGeometricWeights(int classes, std::int64_t base) {
  PriorityWeights weights;
  weights.weight.reserve(static_cast<std::size_t>(classes));
  std::int64_t w = 1;
  for (int k = 0; k < classes; ++k) {
    weights.weight.push_back(w);
    w *= base;
  }
  return weights;
}

bool SatisfiesEq5(const PriorityWeights& weights,
                  const trace::Workload& workload) {
  const auto ranges = ClassRanges(workload);
  // Compare each present class against the next present class above it.
  std::size_t prev = ranges.size();
  for (std::size_t k = 0; k < ranges.size(); ++k) {
    if (!ranges[k].present) continue;
    if (prev != ranges.size()) {
      const std::int64_t low = weights.WeightOf(
                                   static_cast<cluster::Priority>(prev)) *
                               ranges[prev].max_flow;
      const std::int64_t high = weights.WeightOf(
                                    static_cast<cluster::Priority>(k)) *
                                ranges[k].min_flow;
      if (high <= low) return false;
    }
    prev = k;
  }
  return true;
}

}  // namespace aladdin::core
