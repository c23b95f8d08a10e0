// Mutable cluster state: which container runs where, what is free, and the
// anti-affinity blacklist view derived from deployments (Eq. 7–8).
//
// Every scheduler mutates one of these through Deploy / Evict / Migrate /
// Preempt. Resource fit is enforced physically (a machine can never be
// over-committed); anti-affinity is policy and deliberately *not* enforced
// here — Medea knowingly places violating containers, and the independent
// auditor (audit.h) recounts violations from raw placements afterwards.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/application.h"
#include "cluster/constraints.h"
#include "cluster/topology.h"

namespace aladdin::cluster {

// One touch-log entry: `container` was deployed on or evicted from
// `machine`. Replaying a state's touches in log order on a copy of an
// earlier snapshot reproduces the later state.
struct Touch {
  ContainerId container;
  MachineId machine;
};

struct UtilizationSummary {
  std::size_t used_machines = 0;
  double min_share = 0.0;  // lowest dominant share among used machines
  double max_share = 0.0;
  double avg_share = 0.0;
};

class ClusterState {
 public:
  // References must outlive the state; the tables are owned by the workload.
  ClusterState(const Topology& topology,
               const std::vector<Container>& containers,
               const std::vector<Application>& applications,
               const ConstraintSet& constraints);

  // Copies are distinct states: incremental consumers key their caches on
  // instance_id(), so a copy (or an emplace over a dead state at the same
  // address) must never be mistaken for the original.
  ClusterState(const ClusterState& other);
  ClusterState& operator=(const ClusterState& other);
  ClusterState(ClusterState&&) = default;
  ClusterState& operator=(ClusterState&&) = default;

  [[nodiscard]] const Topology& topology() const { return *topology_; }
  [[nodiscard]] const std::vector<Container>& containers() const {
    return *containers_;
  }
  [[nodiscard]] const std::vector<Application>& applications() const {
    return *applications_;
  }
  [[nodiscard]] const ConstraintSet& constraints() const {
    return *constraints_;
  }

  [[nodiscard]] const ResourceVector& Free(MachineId m) const {
    return free_[Idx(m)];
  }
  // Sum of Free(m).cpu_millis() over every machine, kept as a running total
  // by Deploy and Evict.
  [[nodiscard]] std::int64_t free_cpu_millis() const {
    return free_cpu_millis_;
  }

  // Resource feasibility only (Eq. 6).
  [[nodiscard]] bool Fits(ContainerId c, MachineId m) const;

  // Anti-affinity blacklist membership (Eq. 7–8): true if some container
  // already deployed on `m` belongs to an application that conflicts with
  // `c`'s application (including within-app anti-affinity).
  [[nodiscard]] bool Blacklisted(ContainerId c, MachineId m) const;

  // Fits && !Blacklisted — a constraint-respecting scheduler's predicate.
  [[nodiscard]] bool CanPlace(ContainerId c, MachineId m) const;

  // Places `c` on `m`. Requires Fits (asserts); does NOT require the
  // blacklist check — see class comment. Requires `c` currently unplaced.
  void Deploy(ContainerId c, MachineId m);

  // Removes `c` from its machine. Requires `c` placed.
  void Evict(ContainerId c);

  // Evict + Deploy to `to`, counted as one migration (Fig. 13b metric).
  void Migrate(ContainerId c, MachineId to);

  // Evict recorded as a preemption (the victim is expected to be
  // re-queued or dropped by the caller).
  void Preempt(ContainerId c);

  // Counter adjustments for engines that stage moves as Evict+Deploy and
  // only commit the accounting once a whole repair transaction succeeds
  // (rolled-back transactions must not inflate Fig. 13(b)).
  void RecordMigrations(std::int64_t n) { migrations_ += n; }
  void RecordPreemptions(std::int64_t n) { preemptions_ += n; }

  [[nodiscard]] MachineId PlacementOf(ContainerId c) const {
    return placement_[Idx(c)];
  }
  [[nodiscard]] bool IsPlaced(ContainerId c) const {
    return placement_[Idx(c)].valid();
  }
  [[nodiscard]] std::span<const ContainerId> DeployedOn(MachineId m) const {
    return deployed_[Idx(m)];
  }
  // Per-machine application counts: (app id, container count) entries, one
  // per distinct application present, in unspecified order. Flat vectors
  // rather than hash maps: machines host few distinct apps, so a linear
  // scan beats hashing and the blacklist probe (hot path of every placement
  // search) touches one contiguous cache line instead of chasing buckets.
  using AppCounts = std::vector<std::pair<std::int32_t, std::int32_t>>;

  // Distinct applications with at least one container on `m`, with counts.
  [[nodiscard]] const AppCounts& AppsOn(MachineId m) const {
    return apps_on_[Idx(m)];
  }

  [[nodiscard]] std::size_t placed_count() const { return placed_count_; }
  [[nodiscard]] std::int64_t migrations() const { return migrations_; }
  [[nodiscard]] std::int64_t preemptions() const { return preemptions_; }

  [[nodiscard]] std::size_t UsedMachineCount() const;
  // Dominant-share statistics over used machines (Fig. 11).
  [[nodiscard]] UtilizationSummary Utilization() const;

  // Deep consistency audit over every redundant view of the placement state:
  //   * free resources equal machine capacity minus the sum of requests of
  //     the containers placed there, and are never negative;
  //   * placement_ and the per-machine deployed_ lists agree exactly — every
  //     placed container appears once on its machine and nowhere else (no
  //     container placed twice);
  //   * the per-machine application count maps match a recount;
  //   * placed_count() matches the number of valid placements;
  //   * free_cpu_millis() matches the sum of the recomputed free CPU.
  // Returns true when consistent; otherwise false with a description of the
  // first discrepancy in *error (if non-null). O(machines + containers).
  [[nodiscard]] bool CheckConsistency(std::string* error = nullptr) const;

  // CheckConsistency() without the message, under the name perfbench's
  // end-of-run audit calls.
  [[nodiscard]] bool VerifyResourceInvariant() const {
    return CheckConsistency();
  }

  // --- incremental-consumer support ------------------------------------
  //
  // Derived indices (the aggregated network, the shard mirrors) are reused
  // across scheduling passes. The state keeps an append-only touch log, one
  // entry per Deploy and per Evict; each consumer remembers an absolute
  // sequence cursor and replays only the suffix. The log is capped by the
  // live set: once it holds 2 x (machines + placed containers) entries
  // (at least 4096), the oldest half is dropped, and a consumer whose cursor
  // fell off the front rebuilds instead. A consumer lagging by more than
  // the live set would do more work replaying than rebuilding.

  // Unique per live state object (copies get fresh ids; moves keep them).
  [[nodiscard]] std::uint64_t instance_id() const { return instance_id_; }

  // Turns on the touch log (idempotent). Off by default so callers that
  // never reuse indices pay nothing.
  void EnableTouchLog();

  // Absolute sequence number one past the newest log entry.
  [[nodiscard]] std::uint64_t TouchLogEnd() const {
    return touch_base_ + touch_log_.size();
  }

  // Touches in [since, TouchLogEnd()), in mutation order. Sets *overflowed
  // (and returns an empty span) when `since` predates the retained window —
  // the consumer must rebuild from scratch.
  [[nodiscard]] std::span<const Touch> TouchesSince(std::uint64_t since,
                                                    bool* overflowed) const;

  // Turns on the container change journal (idempotent): every container
  // whose placement changes is recorded once until taken.
  void EnableChangeJournal();
  // Containers touched since the last call (deduplicated, in first-touch
  // order); clears the journal.
  [[nodiscard]] std::vector<ContainerId> TakeChangedContainers();

  // Grows the per-container tables after the bound workload appended
  // containers (the container/application vectors this state references are
  // append-only while a state is live).
  void SyncWorkloadGrowth();

 private:
  friend struct ClusterStateTestPeer;  // tests corrupt state to exercise
                                       // CheckConsistency's negative paths

  template <typename T>
  static std::size_t Idx(T id) {
    return static_cast<std::size_t>(id.value());
  }

  const Topology* topology_;
  const std::vector<Container>* containers_;
  const std::vector<Application>* applications_;
  const ConstraintSet* constraints_;

  std::vector<ResourceVector> free_;                // per machine
  std::vector<std::vector<ContainerId>> deployed_;  // per machine
  std::vector<AppCounts> apps_on_;                  // per machine
  std::vector<MachineId> placement_;  // per container
  std::size_t placed_count_ = 0;
  std::int64_t free_cpu_millis_ = 0;
  std::int64_t migrations_ = 0;
  std::int64_t preemptions_ = 0;

  static std::uint64_t NextInstanceId() {
    static std::atomic<std::uint64_t> counter{0};
    return ++counter;
  }

  void LogTouch(ContainerId c, MachineId m);
  void MarkContainer(ContainerId c);

  std::uint64_t instance_id_ = NextInstanceId();

  // Touch log: entry touch_log_[i] carries absolute sequence
  // touch_base_ + i. Bounded by the live set; see LogTouch.
  bool touch_log_enabled_ = false;
  std::uint64_t touch_base_ = 0;
  std::vector<Touch> touch_log_;

  // Container change journal (deduplicated via per-container flags).
  bool change_journal_enabled_ = false;
  std::vector<ContainerId> changed_containers_;
  std::vector<std::uint8_t> changed_flag_;  // per container
};

}  // namespace aladdin::cluster
