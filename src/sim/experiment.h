// Experiment driver: builds the cluster, orders the arrivals, times the
// scheduler, audits the result. One call per (scheduler, workload, order)
// cell of the paper's figures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/metrics.h"
#include "sim/scheduler.h"
#include "trace/alibaba_gen.h"
#include "trace/arrival.h"

namespace aladdin::sim {

struct ExperimentConfig {
  std::size_t machines = 2000;
  trace::ArrivalOrder order = trace::ArrivalOrder::kRandom;
  std::uint64_t arrival_seed = 1;
};

// Runs `scheduler` once over `workload` on a fresh Alibaba-shaped cluster
// and returns the audited metrics. Wall time covers Schedule() only
// (placement latency, Eq. 11), not generation or auditing.
RunMetrics RunExperiment(Scheduler& scheduler, const trace::Workload& workload,
                         const ExperimentConfig& config);

// Same but against a caller-provided topology/state (for incremental or
// heterogeneous scenarios in the examples).
RunMetrics RunExperimentOn(Scheduler& scheduler,
                           const trace::Workload& workload,
                           const cluster::Topology& topology,
                           trace::ArrivalOrder order,
                           std::uint64_t arrival_seed);

// The default scaled workload used by all benches: the paper's trace at
// `scale`, CPU-only, seeded.
trace::Workload MakeBenchWorkload(double scale, std::uint64_t seed = 42);

// The paper's machine/container proportion: 10,000 machines for the scale-1
// trace, scaled linearly (minimum 16).
std::size_t BenchMachineCount(double scale);

}  // namespace aladdin::sim
