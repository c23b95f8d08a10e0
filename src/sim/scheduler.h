// The scheduler abstraction every engine implements (Aladdin and the three
// baselines), plus the outcome record the experiment driver consumes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/state.h"
#include "obs/journal.h"
#include "trace/arrival.h"
#include "trace/workload.h"

namespace aladdin::sim {

struct ScheduleRequest {
  const trace::Workload* workload = nullptr;
  // Submission order of all containers (the CM submits LLAs simultaneously;
  // this is the order they hit the queue, §V.C).
  const std::vector<cluster::ContainerId>* arrival = nullptr;
};

struct ScheduleOutcome {
  // Containers the scheduler gave up on. Everything else is placed in the
  // ClusterState it mutated.
  std::vector<cluster::ContainerId> unplaced;
  // Parallel to `unplaced`: why each container could not be admitted,
  // diagnosed against the final cluster state. Aladdin fills structured
  // causes (capacity vs anti-affinity, obs/journal.h); baselines report
  // obs::Cause::kBaselineUnplaced.
  std::vector<obs::Cause> unplaced_causes;

  // Engine-reported effort counters (instrumentation, not trusted metrics —
  // violations are recounted by the auditor).
  std::int64_t explored_paths = 0;  // machine probes / arcs examined
  std::int64_t rounds = 0;          // scheduling rounds (Firmament) / passes
  std::int64_t il_prunes = 0;       // isomorphism-limiting skips (Aladdin)
  std::int64_t dl_stops = 0;        // depth-limiting terminations (Aladdin)
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  // Schedules every container in `request.arrival` onto `state` (which must
  // be empty unless the engine documents incremental use). Implementations
  // must leave `state` resource-consistent; anti-affinity may be violated by
  // engines that trade violations for packing (Medea).
  virtual ScheduleOutcome Schedule(const ScheduleRequest& request,
                                   cluster::ClusterState& state) = 0;
};

}  // namespace aladdin::sim
