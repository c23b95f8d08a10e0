// A scheduling workload: the application/container tables plus the
// constraint set. Owns the storage that ClusterState and the schedulers
// reference.
#pragma once

#include <string>
#include <vector>

#include "cluster/application.h"
#include "cluster/constraints.h"
#include "cluster/state.h"
#include "cluster/topology.h"

namespace aladdin::trace {

class Workload {
 public:
  Workload() = default;

  // Adds an application with `count` isomorphic containers. Returns its id.
  cluster::ApplicationId AddApplication(std::string name, std::size_t count,
                                        cluster::ResourceVector request,
                                        cluster::Priority priority = 0,
                                        bool anti_affinity_within = false);

  // Appends one more isomorphic container to an existing application
  // (incremental workload growth: pods of a known owner arriving later).
  // Containers are append-only — ids already handed out never move.
  cluster::ContainerId AddContainer(cluster::ApplicationId app);

  // Cross-application anti-affinity rule (a == b for within; usually set via
  // AddApplication's flag instead).
  void AddAntiAffinity(cluster::ApplicationId a, cluster::ApplicationId b);

  [[nodiscard]] const std::vector<cluster::Application>& applications() const {
    return applications_;
  }
  [[nodiscard]] const std::vector<cluster::Container>& containers() const {
    return containers_;
  }
  [[nodiscard]] const cluster::ConstraintSet& constraints() const {
    return constraints_;
  }

  [[nodiscard]] const cluster::Application& application(
      cluster::ApplicationId a) const {
    return applications_[static_cast<std::size_t>(a.value())];
  }
  [[nodiscard]] const cluster::Container& container(
      cluster::ContainerId c) const {
    return containers_[static_cast<std::size_t>(c.value())];
  }

  [[nodiscard]] std::size_t application_count() const {
    return applications_.size();
  }
  [[nodiscard]] std::size_t container_count() const {
    return containers_.size();
  }

  // Fresh empty cluster state bound to this workload's tables.
  [[nodiscard]] cluster::ClusterState MakeState(
      const cluster::Topology& topology) const;

  // Drops the memory dimension of every request (the evaluation's CPU-only
  // mode for a fair comparison with Firmament, §V.A).
  void ProjectCpuOnly();

 private:
  std::vector<cluster::Application> applications_;
  std::vector<cluster::Container> containers_;
  cluster::ConstraintSet constraints_;
};

}  // namespace aladdin::trace
