#include "core/task_scheduler.h"

#include "common/analysis.h"
#include "common/check.h"
#include "obs/trace.h"

namespace aladdin::core {

ALADDIN_HOT std::size_t PlaceTaskRun(
    cluster::ClusterState& state, cluster::FreeIndex& index,
    std::span<const cluster::ContainerId> tasks,
    std::span<cluster::MachineId> out) {
  ALADDIN_DCHECK(tasks.size() == out.size())
      << "PlaceTaskRun out span must match the run";
  if (tasks.empty()) return 0;
  const auto& request =
      state.containers()[static_cast<std::size_t>(tasks[0].value())].request;
#if ALADDIN_DCHECK_IS_ON()
  for (cluster::ContainerId task : tasks) {
    ALADDIN_DCHECK(!state.IsPlaced(task))
        << "PlaceTaskRun task already placed";
    ALADDIN_DCHECK(
        state.containers()[static_cast<std::size_t>(task.value())].request ==
        request)
        << "PlaceTaskRun requires identical requests across the run";
  }
#endif
  std::size_t placed = 0;
  cluster::MachineId winner = cluster::MachineId::Invalid();
  // Key under which the current winner was discovered in the index; the
  // resume point when it stops fitting.
  std::int64_t discovery_free = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (!winner.valid() || !request.FitsIn(state.Free(winner))) {
      cluster::MachineId next = cluster::MachineId::Invalid();
      auto probe = [&](cluster::MachineId m) {
        if (!request.FitsIn(state.Free(m))) return false;
        next = m;
        return true;
      };
      if (winner.valid()) {
        index.OnChanged(winner);
        index.ScanAscendingFrom(discovery_free, winner.value(), probe);
      } else {
        index.ScanAscending(request.cpu_millis(), probe);
      }
      if (!next.valid()) {
        // Nothing fits and no task below mutates state, so every remaining
        // task would fail the identical scan: the failures are a suffix.
        for (std::size_t k = i; k < tasks.size(); ++k) {
          out[k] = cluster::MachineId::Invalid();
        }
        winner = cluster::MachineId::Invalid();  // already re-keyed above
        break;
      }
      winner = next;
      // The index was in sync for `next` (only winners were deployed to,
      // and each was re-keyed before its scan resumed), so its live free
      // CPU is its indexed key.
      discovery_free = state.Free(winner).cpu_millis();
    }
    state.Deploy(tasks[i], winner);
    out[i] = winner;
    ++placed;
  }
  if (winner.valid()) index.OnChanged(winner);
  if (placed > 0) {
    ALADDIN_METRIC_ADD("core/task_placed", placed);
  }
  return placed;
}

}  // namespace aladdin::core
