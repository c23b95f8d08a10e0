// Minimal Kubernetes-style API objects for the co-design integration
// (§IV.C, Fig. 6). The paper deploys Aladdin next to Kubernetes 1.11 by
// "delegating the watching and binding APIs"; this module is the object
// model those APIs exchange: pods (the container requests), nodes (the
// machines), and bindings (the scheduler's decisions).
//
// Only the fields the scheduling path consumes are modelled. A Pod points
// at an immutable PodSpec that every replica of one submit call shares, so
// the event layer copies and queues pods without copying their specs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/application.h"
#include "cluster/resources.h"

namespace aladdin::k8s {

// Owner-level spec: maps onto one LLA / Deployment. Pods of the same owner
// are isomorphic (same requests), matching the paper's IL assumption.
struct PodSpec {
  // Owner (application) name; pods of one owner share constraints.
  std::string app;
  cluster::ResourceVector requests;
  cluster::Priority priority = 0;
  // requiredDuringScheduling pod-anti-affinity against the own owner
  // (spread replicas) ...
  bool anti_affinity_within = false;
  // ... and against other owners by name.
  std::vector<std::string> anti_affinity_apps;
  // Short-lived (batch) pods bypass the flow machinery and go through the
  // "traditional task-based scheduler" (§IV.D). `lifetime_ticks` is their
  // duration in simulator ticks; 0 = long-lived.
  std::int64_t lifetime_ticks = 0;

  [[nodiscard]] bool short_lived() const { return lifetime_ticks > 0; }
};

enum class PodPhase {  // analyze:closed_enum
  kPending,  // submitted, not yet placed
  kBound,    // placed onto a node
  kDeleted,  // removed by the user / controller
};

using PodUid = std::int64_t;

struct Pod {
  PodUid uid = -1;
  // Shared by the replicas of one submit call; null only on the uid-only
  // pod of a PodDeleted event.
  std::shared_ptr<const PodSpec> spec;
  PodPhase phase = PodPhase::kPending;
  std::string node;               // bound node name, empty while pending
  std::int64_t bound_at_tick = -1;
};

struct Node {
  std::string name;
  cluster::ResourceVector capacity;
  // Topology labels (failure-domain.beta.kubernetes.io/... analogs).
  std::string rack;
  std::string zone;  // maps onto the sub-cluster vertex G_k
};

// The scheduler's output object: pod -> node, applied by the API server.
struct Binding {
  PodUid pod = -1;
  std::string node;
};

}  // namespace aladdin::k8s
