// ClusterSimulator: the deployed system of Fig. 6 in one object — an
// Events Handling Center wired into a Model Adaptor driven by a Resolver,
// plus a discrete clock. It simulates the mixed production cluster of
// §IV.D: long-lived applications scheduled by the Aladdin core side by
// side with short-lived batch tasks that occupy resources for a bounded
// number of ticks and then complete.
//
//   ClusterSimulator sim;
//   sim.AddNodes(32, cluster::ResourceVector::Cores(32, 64));
//   sim.SubmitDeployment("web", 8, web_spec);
//   sim.SubmitBatchJob("nightly", 64, cluster::ResourceVector::Cores(2, 4),
//                      /*lifetime_ticks=*/3);
//   const auto stats = sim.Tick();   // dispatch events + schedule
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "k8s/adaptor.h"
#include "k8s/events.h"
#include "k8s/resolver.h"

namespace aladdin::k8s {

class ClusterSimulator {
 public:
  explicit ClusterSimulator(ResolverOptions options = {});

  // --- provisioning ----------------------------------------------------
  // Adds `count` nodes named <prefix>-<index>, round-robined into racks of
  // `machines_per_rack` within zones of `racks_per_zone` racks.
  std::vector<std::string> AddNodes(std::size_t count,
                                    cluster::ResourceVector capacity,
                                    const std::string& prefix = "node",
                                    std::size_t machines_per_rack = 40,
                                    std::size_t racks_per_zone = 10);
  void RemoveNode(const std::string& name);

  // --- workload submission ---------------------------------------------
  // The pods of one call share one immutable PodSpec.
  // Long-lived application with `replicas` pods.
  std::vector<PodUid> SubmitDeployment(const std::string& app,
                                       std::size_t replicas,
                                       const PodSpec& spec);
  // Short-lived batch job: `tasks` pods that complete `lifetime_ticks`
  // ticks after binding.
  std::vector<PodUid> SubmitBatchJob(const std::string& job,
                                     std::size_t tasks,
                                     cluster::ResourceVector request,
                                     std::int64_t lifetime_ticks);
  void DeletePod(PodUid uid);
  // Deletes up to `count` pods of `app` (highest uid first). Returns how
  // many deletions were issued.
  std::size_t ScaleDown(const std::string& app, std::size_t count);

  // --- time --------------------------------------------------------------
  // Advances the clock one tick: completes expired batch pods, dispatches
  // queued events, runs one resolve pass.
  ResolveStats Tick(std::vector<Binding>* bindings = nullptr);

  [[nodiscard]] std::int64_t now() const { return now_; }
  [[nodiscard]] std::int64_t completed_tasks() const {
    return completed_tasks_;
  }
  [[nodiscard]] ModelAdaptor& adaptor() { return adaptor_; }
  [[nodiscard]] EventsHandlingCenter& ehc() { return ehc_; }
  [[nodiscard]] const Resolver& resolver() const { return resolver_; }

 private:
  PodUid NextUid() { return next_uid_++; }
  // Queues `count` pods that all share `spec`.
  std::vector<PodUid> SubmitPods(std::shared_ptr<const PodSpec> spec,
                                 std::size_t count);

  EventsHandlingCenter ehc_;
  ModelAdaptor adaptor_;
  Resolver resolver_;
  std::int64_t now_ = 0;
  PodUid next_uid_ = 1;
  std::int64_t node_counter_ = 0;
  std::int64_t completed_tasks_ = 0;
  std::vector<PodUid> expired_;  // Tick() scratch
};

}  // namespace aladdin::k8s
