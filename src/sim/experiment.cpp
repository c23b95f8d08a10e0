#include "sim/experiment.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "common/timer.h"
#include "obs/trace.h"

namespace aladdin::sim {

RunMetrics RunExperiment(Scheduler& scheduler, const trace::Workload& workload,
                         const ExperimentConfig& config) {
  const cluster::Topology topology =
      trace::MakeAlibabaCluster(config.machines);
  return RunExperimentOn(scheduler, workload, topology, config.order,
                         config.arrival_seed);
}

RunMetrics RunExperimentOn(Scheduler& scheduler,
                           const trace::Workload& workload,
                           const cluster::Topology& topology,
                           trace::ArrivalOrder order,
                           std::uint64_t arrival_seed) {
  ALADDIN_TRACE_SCOPE("sim/replay");
  const auto arrival =
      trace::MakeArrivalSequence(workload, order, arrival_seed);
  cluster::ClusterState state = workload.MakeState(topology);

  ScheduleRequest request;
  request.workload = &workload;
  request.arrival = &arrival;

  WallTimer timer;
  ScheduleOutcome outcome = scheduler.Schedule(request, state);
  const double wall = timer.ElapsedSeconds();

  if (!state.CheckConsistency()) {
    LOG_ERROR << scheduler.name()
              << " corrupted cluster state (resource invariant violated)";
  }
  return ComputeRunMetrics(scheduler.name(), state, std::move(outcome), wall);
}

trace::Workload MakeBenchWorkload(double scale, std::uint64_t seed) {
  trace::AlibabaTraceOptions options;
  options.scale = scale;
  options.seed = seed;
  return trace::GenerateAlibabaLike(options);
}

std::size_t BenchMachineCount(double scale) {
  return std::max<std::size_t>(
      16, static_cast<std::size_t>(std::llround(10000.0 * scale)));
}

}  // namespace aladdin::sim
