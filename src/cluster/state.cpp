#include "cluster/state.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/check.h"

namespace aladdin::cluster {

namespace {
// Touch-log cap floor: a tiny cluster still keeps a few thousand entries, so
// a consumer a few passes behind replays instead of rebuilding.
constexpr std::size_t kTouchLogFloor = 4096;
}  // namespace

ClusterState::ClusterState(const Topology& topology,
                           const std::vector<Container>& containers,
                           const std::vector<Application>& applications,
                           const ConstraintSet& constraints)
    : topology_(&topology),
      containers_(&containers),
      applications_(&applications),
      constraints_(&constraints) {
  free_.reserve(topology.machine_count());
  for (const Machine& m : topology.machines()) {
    free_.push_back(m.capacity);
    free_cpu_millis_ += m.capacity.cpu_millis();
  }
  deployed_.resize(topology.machine_count());
  apps_on_.resize(topology.machine_count());
  placement_.assign(containers.size(), MachineId::Invalid());
}

ClusterState::ClusterState(const ClusterState& other)
    : topology_(other.topology_),
      containers_(other.containers_),
      applications_(other.applications_),
      constraints_(other.constraints_),
      free_(other.free_),
      deployed_(other.deployed_),
      apps_on_(other.apps_on_),
      placement_(other.placement_),
      placed_count_(other.placed_count_),
      free_cpu_millis_(other.free_cpu_millis_),
      migrations_(other.migrations_),
      preemptions_(other.preemptions_),
      touch_log_enabled_(other.touch_log_enabled_),
      touch_base_(other.touch_base_),
      touch_log_(other.touch_log_),
      change_journal_enabled_(other.change_journal_enabled_),
      changed_containers_(other.changed_containers_),
      changed_flag_(other.changed_flag_) {}

ClusterState& ClusterState::operator=(const ClusterState& other) {
  if (this == &other) return *this;
  ClusterState copy(other);  // fresh instance id
  *this = std::move(copy);
  return *this;
}

bool ClusterState::Fits(ContainerId c, MachineId m) const {
  return (*containers_)[Idx(c)].request.FitsIn(free_[Idx(m)]);
}

bool ClusterState::Blacklisted(ContainerId c, MachineId m) const {
  const ApplicationId app = (*containers_)[Idx(c)].app;
  // Iterate the (few) applications present on the machine and test each
  // against the constraint set — Eq. 7 materialised lazily.
  for (const auto& [other_raw, count] : apps_on_[Idx(m)]) {
    if (count <= 0) continue;
    if (constraints_->Conflicts(app, ApplicationId(other_raw))) return true;
  }
  return false;
}

bool ClusterState::CanPlace(ContainerId c, MachineId m) const {
  return Fits(c, m) && !Blacklisted(c, m);
}

void ClusterState::Deploy(ContainerId c, MachineId m) {
  ALADDIN_CHECK(!IsPlaced(c))
      << "Deploy: container " << c << " already on machine " << PlacementOf(c);
  ALADDIN_CHECK(Fits(c, m))
      << "Deploy: container " << c << " does not fit on machine " << m
      << " (free " << free_[Idx(m)].ToString() << ")";
  const Container& container = (*containers_)[Idx(c)];
  free_[Idx(m)] -= container.request;
  free_cpu_millis_ -= container.request.cpu_millis();
  ALADDIN_DCHECK(!free_[Idx(m)].AnyNegative())
      << "Deploy: machine " << m << " over-committed";
  deployed_[Idx(m)].push_back(c);
  AppCounts& apps = apps_on_[Idx(m)];
  const std::int32_t app = container.app.value();
  const auto slot = std::find_if(apps.begin(), apps.end(),
                                 [app](const auto& e) { return e.first == app; });
  if (slot != apps.end()) {
    ++slot->second;
  } else {
    apps.emplace_back(app, 1);
  }
  placement_[Idx(c)] = m;
  ++placed_count_;
  LogTouch(c, m);
  MarkContainer(c);
}

void ClusterState::Evict(ContainerId c) {
  ALADDIN_CHECK(IsPlaced(c)) << "Evict: container " << c << " not placed";
  const MachineId m = placement_[Idx(c)];
  const Container& container = (*containers_)[Idx(c)];
  free_[Idx(m)] += container.request;
  free_cpu_millis_ += container.request.cpu_millis();
  auto& list = deployed_[Idx(m)];
  const auto entry = std::find(list.begin(), list.end(), c);
  ALADDIN_CHECK(entry != list.end())
      << "Evict: container " << c << " missing from machine " << m
      << "'s deployed list (placement map out of sync)";
  list.erase(entry);
  AppCounts& apps = apps_on_[Idx(m)];
  const std::int32_t app = container.app.value();
  const auto it = std::find_if(apps.begin(), apps.end(),
                               [app](const auto& e) { return e.first == app; });
  ALADDIN_CHECK(it != apps.end())
      << "Evict: app " << container.app << " missing from machine " << m
      << "'s app counts";
  if (--it->second == 0) {
    // Swap-with-back erase: entry order is unspecified, and pop_back keeps
    // the vector's capacity so steady-state churn never reallocates.
    *it = apps.back();
    apps.pop_back();
  }
  placement_[Idx(c)] = MachineId::Invalid();
  --placed_count_;
  LogTouch(c, m);
  MarkContainer(c);
}

void ClusterState::Migrate(ContainerId c, MachineId to) {
  ALADDIN_CHECK(IsPlaced(c)) << "Migrate: container " << c << " not placed";
  ALADDIN_CHECK(PlacementOf(c) != to)
      << "Migrate: container " << c << " already on " << to;
  Evict(c);
  Deploy(c, to);
  ++migrations_;
}

void ClusterState::Preempt(ContainerId c) {
  Evict(c);
  ++preemptions_;
}

std::size_t ClusterState::UsedMachineCount() const {
  std::size_t used = 0;
  for (const auto& list : deployed_) {
    if (!list.empty()) ++used;
  }
  return used;
}

UtilizationSummary ClusterState::Utilization() const {
  UtilizationSummary s;
  double total = 0.0;
  for (std::size_t mi = 0; mi < deployed_.size(); ++mi) {
    if (deployed_[mi].empty()) continue;
    const Machine& machine = topology_->machines()[mi];
    const ResourceVector used = machine.capacity - free_[mi];
    const double share = used.DominantShareOf(machine.capacity);
    if (s.used_machines == 0) {
      s.min_share = s.max_share = share;
    } else {
      s.min_share = std::min(s.min_share, share);
      s.max_share = std::max(s.max_share, share);
    }
    ++s.used_machines;
    total += share;
  }
  if (s.used_machines > 0) {
    s.avg_share = total / static_cast<double>(s.used_machines);
  }
  return s;
}

namespace {

bool Fail(std::string* error, const std::ostringstream& os) {
  if (error != nullptr) *error = os.str();
  return false;
}

}  // namespace

bool ClusterState::CheckConsistency(std::string* error) const {
  const std::size_t machines = topology_->machine_count();
  const std::size_t containers = containers_->size();
  if (free_.size() != machines || deployed_.size() != machines ||
      apps_on_.size() != machines || placement_.size() != containers) {
    std::ostringstream os;
    os << "table sizes out of sync (machines=" << machines
       << ", containers=" << containers << ", free=" << free_.size()
       << ", deployed=" << deployed_.size() << ", apps_on=" << apps_on_.size()
       << ", placement=" << placement_.size() << ")";
    return Fail(error, os);
  }

  // Pass 1: walk the per-machine deployed lists, recomputing free vectors
  // and app counts and cross-checking the placement map.
  std::vector<std::uint8_t> seen(containers, 0);
  std::size_t listed = 0;
  std::int64_t free_cpu = 0;
  for (std::size_t mi = 0; mi < machines; ++mi) {
    ResourceVector free = topology_->machines()[mi].capacity;
    std::unordered_map<std::int32_t, std::int32_t> apps;
    for (ContainerId c : deployed_[mi]) {
      if (!c.valid() || Idx(c) >= containers) {
        std::ostringstream os;
        os << "machine " << mi << ": bogus container id " << c
           << " in deployed list";
        return Fail(error, os);
      }
      if (seen[Idx(c)]++) {
        std::ostringstream os;
        os << "container " << c << " deployed twice (second copy on machine "
           << mi << ")";
        return Fail(error, os);
      }
      if (placement_[Idx(c)] != MachineId(static_cast<std::int32_t>(mi))) {
        std::ostringstream os;
        os << "container " << c << " listed on machine " << mi
           << " but placement map says " << placement_[Idx(c)];
        return Fail(error, os);
      }
      const Container& container = (*containers_)[Idx(c)];
      free -= container.request;
      ++apps[container.app.value()];
      ++listed;
    }
    if (free.AnyNegative()) {
      std::ostringstream os;
      os << "machine " << mi << " over-committed: recomputed free "
         << free.ToString();
      return Fail(error, os);
    }
    if (!(free == free_[mi])) {
      std::ostringstream os;
      os << "machine " << mi << ": cached free " << free_[mi].ToString()
         << " != capacity minus placed " << free.ToString();
      return Fail(error, os);
    }
    free_cpu += free.cpu_millis();
    std::unordered_map<std::int32_t, std::int32_t> cached;
    bool duplicate_entry = false;
    for (const auto& [app, count] : apps_on_[mi]) {
      if (!cached.emplace(app, count).second) duplicate_entry = true;
    }
    if (duplicate_entry || cached != apps) {
      std::ostringstream os;
      os << "machine " << mi << ": app-count map disagrees with a recount of "
         << deployed_[mi].size() << " deployed containers";
      return Fail(error, os);
    }
  }

  // Pass 2: every placement-map entry is backed by a deployed-list entry
  // (pass 1 established the converse), and the counter matches.
  std::size_t placed = 0;
  for (std::size_t ci = 0; ci < containers; ++ci) {
    const MachineId m = placement_[ci];
    if (!m.valid()) continue;
    ++placed;
    if (Idx(m) >= machines) {
      std::ostringstream os;
      os << "container " << ci << " placed on nonexistent machine " << m;
      return Fail(error, os);
    }
    if (!seen[ci]) {
      std::ostringstream os;
      os << "container " << ci << " placed on machine " << m
         << " per the placement map but absent from its deployed list";
      return Fail(error, os);
    }
  }
  if (placed != listed || placed != placed_count_) {
    std::ostringstream os;
    os << "placed_count " << placed_count_ << " != " << placed
       << " valid placements (" << listed << " deployed-list entries)";
    return Fail(error, os);
  }
  if (free_cpu != free_cpu_millis_) {
    std::ostringstream os;
    os << "free_cpu_millis " << free_cpu_millis_ << " != " << free_cpu
       << " summed over machines";
    return Fail(error, os);
  }
  return true;
}

void ClusterState::EnableTouchLog() {
  if (touch_log_enabled_) return;
  touch_log_enabled_ = true;
  touch_log_.clear();
}

std::span<const Touch> ClusterState::TouchesSince(std::uint64_t since,
                                                  bool* overflowed) const {
  ALADDIN_DCHECK(overflowed != nullptr);
  if (since < touch_base_) {
    *overflowed = true;
    return {};
  }
  *overflowed = false;
  ALADDIN_DCHECK(since <= TouchLogEnd())
      << "TouchesSince cursor " << since << " beyond log end " << TouchLogEnd();
  const std::size_t offset = static_cast<std::size_t>(since - touch_base_);
  return std::span<const Touch>(touch_log_).subspan(offset);
}

void ClusterState::EnableChangeJournal() {
  if (change_journal_enabled_) return;
  change_journal_enabled_ = true;
  // analyze:allow(A103) one-time journal enable, not a per-tick path
  changed_flag_.assign(containers_->size(), 0);
}

std::vector<ContainerId> ClusterState::TakeChangedContainers() {
  for (ContainerId c : changed_containers_) changed_flag_[Idx(c)] = 0;
  return std::exchange(changed_containers_, {});
}

void ClusterState::SyncWorkloadGrowth() {
  ALADDIN_CHECK(containers_->size() >= placement_.size())
      << "workload container table shrank under a live state";
  if (containers_->size() == placement_.size()) return;
  // analyze:allow(A103) grows with workload arrivals to the high-water mark
  placement_.resize(containers_->size(), MachineId::Invalid());
  if (change_journal_enabled_) changed_flag_.resize(containers_->size(), 0);  // analyze:allow(A103) same growth
}

void ClusterState::LogTouch(ContainerId c, MachineId m) {
  if (!touch_log_enabled_) return;
  // Past 2 x the live set, drop the oldest half: a consumer overflows once
  // it lags by more than half the cap, i.e. by more touches than there are
  // machines and placements to rebuild from.
  const std::size_t cap =
      std::max(kTouchLogFloor, 2 * (free_.size() + placed_count_));
  if (touch_log_.size() >= cap) {
    const std::size_t drop = touch_log_.size() / 2;
    touch_log_.erase(touch_log_.begin(),
                     touch_log_.begin() + static_cast<std::ptrdiff_t>(drop));
    touch_base_ += drop;
  }
  touch_log_.push_back({c, m});
}

void ClusterState::MarkContainer(ContainerId c) {
  if (!change_journal_enabled_) return;
  if (changed_flag_[Idx(c)]) return;
  changed_flag_[Idx(c)] = 1;
  changed_containers_.push_back(c);
}

}  // namespace aladdin::cluster
