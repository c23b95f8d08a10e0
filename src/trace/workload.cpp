#include "trace/workload.h"

#include "common/check.h"

namespace aladdin::trace {

cluster::ApplicationId Workload::AddApplication(
    std::string name, std::size_t count, cluster::ResourceVector request,
    cluster::Priority priority, bool anti_affinity_within) {
  ALADDIN_CHECK(count >= 1);
  const cluster::ApplicationId id(
      static_cast<std::int32_t>(applications_.size()));
  cluster::Application app;
  app.id = id;
  app.name = std::move(name);
  app.request = request;
  app.priority = priority;
  app.anti_affinity_within = anti_affinity_within;
  app.containers.reserve(count);  // analyze:allow(A103) one-time sizing at application admission
  for (std::size_t i = 0; i < count; ++i) {
    const cluster::ContainerId cid(
        static_cast<std::int32_t>(containers_.size()));
    containers_.push_back(cluster::Container{cid, id, request, priority});
    app.containers.push_back(cid);
  }
  applications_.push_back(std::move(app));
  constraints_.Resize(applications_.size());
  if (anti_affinity_within) constraints_.AddAntiAffinity(id, id);
  return id;
}

cluster::ContainerId Workload::AddContainer(cluster::ApplicationId app) {
  ALADDIN_CHECK(app.valid() &&
                static_cast<std::size_t>(app.value()) < applications_.size())
      << "AddContainer: unknown application " << app;
  cluster::Application& owner =
      applications_[static_cast<std::size_t>(app.value())];
  const cluster::ContainerId cid(
      static_cast<std::int32_t>(containers_.size()));
  containers_.push_back(
      cluster::Container{cid, app, owner.request, owner.priority});
  owner.containers.push_back(cid);
  return cid;
}

void Workload::AddAntiAffinity(cluster::ApplicationId a,
                               cluster::ApplicationId b) {
  constraints_.AddAntiAffinity(a, b);
  if (a == b) {
    applications_[static_cast<std::size_t>(a.value())].anti_affinity_within =
        true;
  }
}

cluster::ClusterState Workload::MakeState(
    const cluster::Topology& topology) const {
  return cluster::ClusterState(topology, containers_, applications_,
                               constraints_);
}

void Workload::ProjectCpuOnly() {
  for (auto& c : containers_) c.request = c.request.CpuOnly();
  for (auto& a : applications_) a.request = a.request.CpuOnly();
}

}  // namespace aladdin::trace
