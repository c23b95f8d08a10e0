// Synthetic Alibaba-like LLA trace generator.
//
// The paper replays a proprietary snapshot of an Alibaba production trace
// (§V.A, Fig. 8). That snapshot is not public, so we generate a workload
// fitted to every distributional fact the paper reports:
//   * 13,056 applications, ~100,000 containers;
//   * 64 % of applications have a single container;
//   * 85 % have fewer than 50 containers; a few exceed 2,000;
//   * ~72 % of applications (9,400) carry anti-affinity constraints;
//   * ~16 % (2,088) carry priority constraints;
//   * several high-priority, large-request LLAs conflict with > 5,000
//     containers;
//   * container requests capped at 16 CPUs / 32 GB;
//   * machines homogeneous at 32 CPUs / 64 GB.
// All counts scale linearly through `scale` so benches can run reduced-size
// replicas with the same shape. Generation is deterministic per seed.
#pragma once

#include <cstdint>

#include "trace/workload.h"

namespace aladdin::trace {

struct AlibabaTraceOptions {
  // Linear scale factor over the paper's workload. 1.0 = 13,056 apps /
  // ~100 k containers / sized for a 10,000-machine cluster.
  double scale = 1.0;

  std::uint64_t seed = 42;

  // Drop the memory dimension after generation (the evaluation's mode).
  bool cpu_only = true;
};

// "several LLAs cannot be co-located with at least other 5,000 containers"
// (§V.A): up to kHeavyConflicters giant apps gain cross-application rules
// until kHeavyConflictContainers × scale other containers conflict with
// each. Small scales have fewer giants, so fewer heavy conflicters.
inline constexpr std::int64_t kHeavyConflicters = 4;
inline constexpr std::int64_t kHeavyConflictContainers = 8000;

// The matching homogeneous cluster (32 CPU / 64 GB machines, §V.A).
cluster::Topology MakeAlibabaCluster(std::size_t machines);

// Heterogeneous variant for the paper's future-work direction (§VII,
// "extend the flow-based model to support heterogeneous workloads"): a
// deterministic SKU mix — 50 % standard 32 CPU / 64 GB, 30 % large
// 64 CPU / 128 GB, 20 % small 16 CPU / 32 GB — laid out in homogeneous
// racks per SKU. Total capacity exceeds the homogeneous cluster of equal
// machine count by ~20 %; experiments comparing the two report capacity
// alongside machine counts.
cluster::Topology MakeHeterogeneousCluster(std::size_t machines,
                                           std::uint64_t seed = 5);

Workload GenerateAlibabaLike(const AlibabaTraceOptions& options);

}  // namespace aladdin::trace
