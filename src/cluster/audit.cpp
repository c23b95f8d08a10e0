#include "cluster/audit.h"

#include <algorithm>

namespace aladdin::cluster {

double AuditReport::ViolationPercent() const {
  const std::size_t live = total_containers - retired;
  if (live == 0) return 0.0;
  return 100.0 * static_cast<double>(TotalViolations()) /
         static_cast<double>(live);
}

double AuditReport::AntiAffinityShare() const {
  const std::size_t total = TotalViolations();
  if (total == 0) return 0.0;
  return 100.0 *
         static_cast<double>(unplaced_aa_constrained + colocation_violations) /
         static_cast<double>(total);
}

std::vector<ContainerId> CollectColocationViolations(
    const ClusterState& state) {
  std::vector<ContainerId> offenders;
  const auto& containers = state.containers();
  const auto& constraints = state.constraints();
  const auto machine_count = state.topology().machine_count();
  for (std::size_t mi = 0; mi < machine_count; ++mi) {
    const MachineId m(static_cast<std::int32_t>(mi));
    const auto colocated = state.DeployedOn(m);
    for (std::size_t i = 0; i < colocated.size(); ++i) {
      const ApplicationId app_i = containers[static_cast<std::size_t>(
                                                 colocated[i].value())]
                                      .app;
      for (std::size_t j = i + 1; j < colocated.size(); ++j) {
        const ApplicationId app_j = containers[static_cast<std::size_t>(
                                                   colocated[j].value())]
                                        .app;
        if (constraints.Conflicts(app_i, app_j)) {
          // Blame the later-indexed container; one blame per pair keeps the
          // count stable and order-independent.
          offenders.push_back(colocated[j]);
        }
      }
    }
  }
  // A container violating against several peers is still one offender.
  std::sort(offenders.begin(), offenders.end());
  offenders.erase(std::unique(offenders.begin(), offenders.end()),
                  offenders.end());
  return offenders;
}

AuditReport Audit(const ClusterState& state,
                  std::span<const ContainerId> retired) {
  AuditReport report;
  const auto& containers = state.containers();
  report.total_containers = containers.size();
  std::vector<bool> is_retired(containers.size(), false);
  for (const ContainerId c : retired) {
    is_retired[static_cast<std::size_t>(c.value())] = true;
  }

  report.colocation_violations = CollectColocationViolations(state).size();

  const auto machine_count = state.topology().machine_count();
  // any_lower_placed[p]: some container with priority < p is deployed, i.e.
  // evicting it could in principle make room for a starved class-p container.
  bool any_lower_placed[kPriorityClasses] = {};
  for (const Container& c : containers) {
    if (!state.IsPlaced(c.id)) continue;
    for (Priority p = c.priority + 1; p < kPriorityClasses; ++p) {
      any_lower_placed[p] = true;
    }
  }

  for (const Container& c : containers) {
    if (state.IsPlaced(c.id)) {
      ++report.placed;
      continue;
    }
    if (is_retired[static_cast<std::size_t>(c.id.value())]) {
      ++report.retired;
      continue;
    }
    ++report.unplaced;
    const bool aa_constrained =
        state.constraints().HasWithinAntiAffinity(c.app) ||
        !state.constraints().ConflictsOf(c.app).empty();
    if (aa_constrained) ++report.unplaced_aa_constrained;
    // Cause attribution: scan machines until we can classify.
    bool fits_ignoring_policy = false;
    bool fits_with_policy = false;
    for (std::size_t mi = 0; mi < machine_count && !fits_with_policy; ++mi) {
      const MachineId m(static_cast<std::int32_t>(mi));
      if (!state.Fits(c.id, m)) continue;
      fits_ignoring_policy = true;
      if (!state.Blacklisted(c.id, m)) fits_with_policy = true;
    }
    if (fits_with_policy) {
      ++report.unplaced_scheduler;
    } else if (fits_ignoring_policy) {
      ++report.unplaced_anti_affinity;
    } else {
      ++report.unplaced_resources;
    }
    // Priority inversion: this container is starved while some strictly
    // lower-priority container occupies capacity.
    if (c.priority > kLowestPriority && c.priority < kPriorityClasses &&
        any_lower_placed[c.priority]) {
      ++report.priority_inversions;
    }
  }
  return report;
}

}  // namespace aladdin::cluster
