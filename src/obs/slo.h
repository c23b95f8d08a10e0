// Admission-SLO engine: turns lifecycle spans (obs/lifecycle.h) into
// attainment and burn-rate accounting against a configurable objective of
// the form "`percent`% of containers placed within `wait_ticks` ticks".
//
// All state is exact integer counts keyed on ticks, mutated only from
// serial resolver sections — the same determinism bar as the journal, so
// attainment is bit-identical across thread counts.
// Doubles appear only in snapshots, derived deterministically from ints.
//
// Violation semantics (counted once per span epoch, journaled as
// Cause::kSloViolated):
//   * a span still pending when its pending-age exceeds the objective is
//     flagged at that crossing tick (its eventual wait is already > N);
//   * a span placed with wait > N that was never flagged while pending is
//     flagged at placement (fast crossings inside one tick window).
// Attainment = within / (within + violations); the burn rate divides the
// trailing-window bad fraction by the error budget (100 - percent)/100, so
// burn > 1 means the window is eating budget faster than the objective
// allows (the standard SRE multi-window burn alert input).
//
// This header also hosts the introspection hub behind the listener's
// /statusz and /slo endpoints: the resolver publishes an
// IntrospectionStatus per tick; the HTTP thread renders the latest one.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/lifecycle.h"
#include "obs/watchdog.h"

namespace aladdin::obs {

struct SloObjective {
  // "percent% of containers placed within wait_ticks ticks of arrival."
  std::int64_t wait_ticks = 4;
  double percent = 99.0;
};

// Exact integer percentiles over a dense count-by-value array (nearest
// rank): smallest value v with cumulative(v) >= ceil(total * num / den).
// Returns 0 for an empty distribution.
[[nodiscard]] std::int64_t PercentileFromCounts(
    const std::vector<std::int64_t>& counts, std::int64_t num,
    std::int64_t den);

// Per-tick pending-age summary for ResolveStats (exact tick integers).
struct PendingAgeStats {
  std::size_t open = 0;  // spans still pending after this resolve
  std::int64_t p50 = 0;
  std::int64_t p99 = 0;
  std::int64_t p999 = 0;
  std::int64_t max = 0;
};
[[nodiscard]] PendingAgeStats SummarizePendingAges(
    const std::vector<std::int64_t>& age_counts);

// One application's attainment row (snapshot form).
struct SloAppRow {
  std::int32_t app = -1;
  std::string name;
  std::int64_t admitted = 0;    // spans closed by placement
  std::int64_t within = 0;      // admitted with wait <= objective
  std::int64_t violations = 0;  // spans flagged past the objective
  std::int64_t wait_max = 0;
  std::int64_t p50 = 0;  // wait percentiles over admitted spans, in ticks
  std::int64_t p99 = 0;
  std::int64_t p999 = 0;
};

struct SloShardRow {
  std::int32_t shard = -1;
  std::int64_t admitted = 0;
  std::int64_t within = 0;
  std::int64_t wait_max = 0;
};

struct SloSnapshot {
  SloObjective objective;
  std::int64_t tick = -1;
  std::int64_t admitted = 0;
  std::int64_t within = 0;
  std::int64_t violations = 0;
  std::int64_t wait_max = 0;
  std::int64_t p50 = 0;
  std::int64_t p99 = 0;
  std::int64_t p999 = 0;
  double attainment_pct = 100.0;  // within / (within + violations)
  double burn_rate = 0.0;         // trailing-window budget burn multiple
  std::size_t apps_total = 0;     // registered apps (rows may be capped)
  std::vector<SloAppRow> apps;    // worst-first, capped by Snapshot(limit)
  std::vector<SloShardRow> shards;  // K > 1 placements only
};

class SloEngine {
 public:
  explicit SloEngine(SloObjective objective = {});

  [[nodiscard]] const SloObjective& objective() const { return objective_; }

  // Interns the app name for tables / JSON. Idempotent; first name wins.
  void RegisterApp(std::int32_t app, std::string_view name);

  // Rotates the burn-rate window. Call once per resolve, before any
  // OnAdmitted / ObservePending of that tick.
  void BeginTick(std::int64_t tick);

  // A pending span placed this tick: records the wait (global, per app,
  // per shard when shard >= 0) and flags a late placement that was never
  // flagged while pending. Call with the ledger's span, post-OnPlaced.
  void OnAdmitted(LifecycleSpan& span, std::int64_t wait_ticks);

  // A span still pending at the end of `now`: flags (once per epoch) the
  // first crossing of the objective and journals Cause::kSloViolated.
  void ObservePending(LifecycleSpan& span, std::int64_t now);

  // Snapshot with at most `app_rows` per-app rows, ordered worst-first
  // (violations desc, admitted desc, app asc — deterministic). Ranks every
  // app with a row's worth of activity, but builds only the rows returned.
  [[nodiscard]] SloSnapshot Snapshot(std::size_t app_rows) const;

  [[nodiscard]] std::int64_t admitted() const { return admitted_; }
  [[nodiscard]] std::int64_t violations() const { return violations_; }

  // This tick's burn-slot counts (good = admitted within objective, bad =
  // newly-flagged violations) — exact-integer inputs for the watchdog's
  // dual-window burn detector. Read after the tick's OnAdmitted /
  // ObservePending calls.
  [[nodiscard]] std::int64_t tick_good() const {
    return burn_ring_[burn_head_].good;
  }
  [[nodiscard]] std::int64_t tick_bad() const {
    return burn_ring_[burn_head_].bad;
  }
  // The objective's error budget in basis points: round((100 - percent) *
  // 100), floored at 1. Fixed at configure time, so firing decisions built
  // on it stay exact-integer.
  [[nodiscard]] std::int64_t budget_bp() const;

 private:
  struct AppSlo {
    std::int64_t admitted = 0;
    std::int64_t within = 0;
    std::int64_t violations = 0;
    std::int64_t wait_sum = 0;
    std::int64_t wait_max = 0;
    std::vector<std::int64_t> wait_counts;  // dense by wait, grown on demand
  };
  struct ShardSlo {
    std::int64_t admitted = 0;
    std::int64_t within = 0;
    std::int64_t wait_max = 0;
  };
  // Snapshot's ranking key: the fields the worst-first row order reads.
  struct RankKey {
    std::int64_t violations = 0;
    std::int64_t admitted = 0;
    std::int32_t app = -1;
  };

  void CountViolation(LifecycleSpan& span, std::int64_t age_ticks);
  AppSlo& AppSlot(std::int32_t app);

  SloObjective objective_;
  std::int64_t tick_ = -1;
  std::int64_t admitted_ = 0;
  std::int64_t within_ = 0;
  std::int64_t violations_ = 0;
  std::int64_t wait_max_ = 0;
  std::vector<std::int64_t> wait_counts_;  // global, dense by wait ticks
  std::vector<AppSlo> apps_;               // dense by app id
  std::vector<std::string> app_names_;     // dense by app id
  std::vector<ShardSlo> shards_;           // dense by shard (K > 1 only)
  mutable std::vector<RankKey> rank_scratch_;  // Snapshot's, capacity kept
  // Burn window ring, one slot per tick of the trailing burn window:
  // per-tick good (within) / bad (new violations).
  struct BurnSlot {
    std::int64_t good = 0;
    std::int64_t bad = 0;
  };
  std::vector<BurnSlot> burn_ring_;
  std::size_t burn_head_ = 0;
};

// ---------------------------------------------------------------------------
// Introspection hub: the resolver publishes one IntrospectionStatus per
// tick (serial section); the PrometheusListener's HTTP thread renders the
// latest on GET /statusz and /slo. A process-wide slot guarded by a mutex
// — publish is a copy, render is a copy-out, no lock held during I/O.

struct IntrospectionStatus {
  std::int64_t tick = -1;
  SloSnapshot slo;
  PendingAgeStats pending_ages;
  std::vector<ShardLoad> shards;                // per-shard load (K > 1)
  std::vector<PendingRow> oldest_pending;       // worst queue residents
  std::vector<std::string> oldest_pending_app;  // app names, same order
  // Watchdog alert state (enabled=false when the resolver runs without
  // --watchdog); rendered by the listener's /alertz endpoint.
  WatchdogSnapshot watchdog;
};

void PublishIntrospection(IntrospectionStatus status);
[[nodiscard]] IntrospectionStatus IntrospectionSnapshot();
// True once any status has been published this process.
[[nodiscard]] bool IntrospectionPublished();

// /statusz: human-readable text tables (per-shard load, SLO attainment,
// oldest-pending). /slo: machine-readable JSON of the same snapshot.
[[nodiscard]] std::string RenderStatusz(const IntrospectionStatus& status);
[[nodiscard]] std::string RenderSloJson(const IntrospectionStatus& status);

}  // namespace aladdin::obs
