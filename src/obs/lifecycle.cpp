#include "obs/lifecycle.h"

#include <algorithm>

#include "common/check.h"

namespace aladdin::obs {

const LifecycleSpan* LifecycleLedger::SpanPtr(std::int32_t container) const {
  const auto i = static_cast<std::size_t>(container);
  if (container < 0 || i >= spans_.size()) return nullptr;
  const LifecycleSpan& span = spans_[i];
  return span.state == SpanState::kNever ? nullptr : &span;
}

LifecycleSpan* LifecycleLedger::MutableSpan(std::int32_t container) {
  return const_cast<LifecycleSpan*>(SpanPtr(container));
}

LifecycleSpan& LifecycleLedger::Slot(std::int32_t container) {
  ALADDIN_CHECK(container >= 0) << "lifecycle span for invalid container";
  const auto i = static_cast<std::size_t>(container);
  if (i >= spans_.size()) {
    // analyze:allow(A103) amortised growth, bounded by the container universe
    spans_.resize(i + 1);
    // analyze:allow(A103) kept parallel to spans_, same bound
    open_slot_.resize(i + 1);
  }
  return spans_[i];
}

void LifecycleLedger::Open(std::int32_t container) {
  open_slot_[static_cast<std::size_t>(container)] =
      static_cast<std::int32_t>(open_.size());
  open_.push_back(container);
}

void LifecycleLedger::Close(std::int32_t container) {
  const std::int32_t slot = open_slot_[static_cast<std::size_t>(container)];
  const std::int32_t moved = open_.back();
  open_[static_cast<std::size_t>(slot)] = moved;
  open_slot_[static_cast<std::size_t>(moved)] = slot;
  open_.pop_back();
}

void LifecycleLedger::OnArrival(std::int32_t container, std::int32_t app,
                                std::int64_t tick) {
  LifecycleSpan& span = Slot(container);
  if (span.state == SpanState::kPending) return;  // already open
  const bool reopen = span.state != SpanState::kNever;
  if (reopen && app >= 0) {
    const auto i = static_cast<std::size_t>(app);
    if (i >= reopen_counts_.size()) reopen_counts_.resize(i + 1, 0);
    // analyze:allow(A103) one entry per flapping app per tick
    if (reopen_counts_[i] == 0) reopen_apps_.push_back(app);
    ++reopen_counts_[i];
  }
  span.container = container;
  span.app = app;
  span.machine = -1;
  span.shard = -1;
  span.arrival_tick = tick;
  span.terminal_tick = -1;
  span.attempts = 0;
  if (reopen) ++span.epoch;
  span.state = SpanState::kPending;
  span.last_cause = Cause::kNone;
  span.slo_flagged = false;
  Open(container);
  if (JournalEnabled()) {
    EmitDecision(DecisionKind::kEvent, Cause::kPodArrived, container,
                 /*machine=*/-1, /*other=*/app, /*detail=*/span.epoch);
  }
}

void LifecycleLedger::OnAttempt(std::int32_t container, Cause cause,
                                std::int64_t tick) {
  (void)tick;
  LifecycleSpan* span = MutableSpan(container);
  if (span == nullptr || span->state != SpanState::kPending) return;
  ++span->attempts;
  span->last_cause = cause;
}

std::int64_t LifecycleLedger::OnPlaced(std::int32_t container,
                                       std::int32_t machine,
                                       std::int32_t shard, std::int64_t tick) {
  LifecycleSpan* span = MutableSpan(container);
  if (span == nullptr || span->state != SpanState::kPending) return -1;
  span->machine = machine;
  span->shard = shard;
  span->terminal_tick = tick;
  span->state = SpanState::kPlaced;
  Close(container);
  return tick - span->arrival_tick;
}

void LifecycleLedger::OnPreempted(std::int32_t container, std::int64_t tick) {
  LifecycleSpan* span = MutableSpan(container);
  if (span == nullptr) return;
  if (span->state == SpanState::kPending) return;  // nothing to re-open
  OnArrival(container, span->app, tick);
}

void LifecycleLedger::OnRetired(std::int32_t container, std::int64_t tick) {
  LifecycleSpan* span = MutableSpan(container);
  if (span == nullptr || span->state == SpanState::kRetired) return;
  if (span->state == SpanState::kPending) Close(container);
  span->terminal_tick = tick;
  span->state = SpanState::kRetired;
}

std::vector<PendingRow> LifecycleLedger::OldestPending(
    std::int64_t now, std::size_t limit) const {
  // analyze:allow(A102) once-per-tick table, bounded by `limit`
  std::vector<PendingRow> rows;
  if (limit == 0) return rows;
  rows.reserve(limit + 1);  // analyze:allow(A103) bounded by `limit`
  const auto older = [](const PendingRow& a, const PendingRow& b) {
    if (a.arrival_tick != b.arrival_tick) {
      return a.arrival_tick < b.arrival_tick;
    }
    return a.container < b.container;
  };
  for (const std::int32_t container : open_) {
    const LifecycleSpan& span = spans_[static_cast<std::size_t>(container)];
    PendingRow row;
    row.container = span.container;
    row.app = span.app;
    row.arrival_tick = span.arrival_tick;
    row.age_ticks = span.PendingAge(now);
    row.attempts = span.attempts;
    row.last_cause = span.last_cause;
    if (rows.size() == limit && !older(row, rows.back())) continue;
    rows.insert(std::upper_bound(rows.begin(), rows.end(), row, older), row);
    if (rows.size() > limit) rows.pop_back();
  }
  return rows;
}

std::vector<std::pair<std::int32_t, std::int64_t>>
LifecycleLedger::TakeReopens() {
  // analyze:allow(A102) once-per-tick drain, proportional to flapping apps
  std::vector<std::pair<std::int32_t, std::int64_t>> out;
  out.reserve(reopen_apps_.size());  // analyze:allow(A103) bounded drain
  std::sort(reopen_apps_.begin(), reopen_apps_.end());
  for (const std::int32_t app : reopen_apps_) {
    const auto i = static_cast<std::size_t>(app);
    out.emplace_back(app, reopen_counts_[i]);
    reopen_counts_[i] = 0;
  }
  reopen_apps_.clear();
  return out;
}

std::vector<std::int64_t> LifecycleLedger::PendingAgeCounts(
    std::int64_t now) const {
  // analyze:allow(A102) once-per-tick histogram, bounded by the max age
  std::vector<std::int64_t> counts;
  for (const std::int32_t container : open_) {
    const std::int64_t age =
        spans_[static_cast<std::size_t>(container)].PendingAge(now);
    if (age < 0) continue;  // defensive: arrival in the future
    const auto slot = static_cast<std::size_t>(age);
    // analyze:allow(A103) bounded by the max pending age in ticks
    if (slot >= counts.size()) counts.resize(slot + 1, 0);
    ++counts[slot];
  }
  return counts;
}

}  // namespace aladdin::obs
