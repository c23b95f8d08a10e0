#include "cluster/constraints.h"

#include <algorithm>

#include "common/check.h"

namespace aladdin::cluster {

ConstraintSet::ConstraintSet(std::size_t application_count) {
  Resize(application_count);
}

void ConstraintSet::Resize(std::size_t application_count) {
  ALADDIN_CHECK(application_count >= adjacency_.size());
  // analyze:allow(A103) grows to the application high-water mark; no-op once sized
  adjacency_.resize(application_count);
  within_.resize(application_count, false);  // analyze:allow(A103) same high-water growth
}

std::uint64_t ConstraintSet::Key(ApplicationId a, ApplicationId b) {
  auto lo = static_cast<std::uint32_t>(std::min(a.value(), b.value()));
  auto hi = static_cast<std::uint32_t>(std::max(a.value(), b.value()));
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

void ConstraintSet::AddAntiAffinity(ApplicationId a, ApplicationId b) {
  ALADDIN_CHECK(a.valid() && b.valid());
  const auto max_id = static_cast<std::size_t>(std::max(a.value(), b.value()));
  if (max_id >= adjacency_.size()) Resize(max_id + 1);
  if (!rule_keys_.insert(Key(a, b)).second) return;  // duplicate
  rules_.push_back(AntiAffinityRule{a, b});
  if (a == b) {
    within_[static_cast<std::size_t>(a.value())] = true;
  } else {
    adjacency_[static_cast<std::size_t>(a.value())].push_back(b);
    adjacency_[static_cast<std::size_t>(b.value())].push_back(a);
  }
}

bool ConstraintSet::Conflicts(ApplicationId a, ApplicationId b) const {
  if (!a.valid() || !b.valid()) return false;
  const auto ai = static_cast<std::size_t>(a.value());
  if (ai >= adjacency_.size()) return false;
  if (a == b) return within_[ai];
  return rule_keys_.contains(Key(a, b));
}

std::span<const ApplicationId> ConstraintSet::ConflictsOf(
    ApplicationId a) const {
  // analyze:allow(A102) constructed once (function-local static), empty
  static const std::vector<ApplicationId> kEmpty;
  const auto ai = static_cast<std::size_t>(a.value());
  if (!a.valid() || ai >= adjacency_.size()) return kEmpty;
  return adjacency_[ai];
}

std::int64_t ConstraintSet::ConflictingContainerCount(
    ApplicationId a, const std::vector<Application>& apps) const {
  std::int64_t total = 0;
  for (ApplicationId other : ConflictsOf(a)) {
    total +=
        static_cast<std::int64_t>(apps[static_cast<std::size_t>(other.value())]
                                      .containers.size());
  }
  if (HasWithinAntiAffinity(a)) {
    const auto& self = apps[static_cast<std::size_t>(a.value())];
    total += static_cast<std::int64_t>(self.containers.size()) - 1;
  }
  return total;
}

}  // namespace aladdin::cluster
