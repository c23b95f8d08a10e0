// Cluster health watchdog: a deterministic online anomaly-detection engine
// evaluated once per tick from serial resolver sections.
//
// Six detectors over the signals the observability plane already records
// (SLO burn, pending ages, lifecycle epochs, shard load, solve effort,
// give-up causes) turn raw streams into typed alerts with provenance: a
// closed AlertKind vocabulary, an open/update/resolve lifecycle with
// hysteresis, a severity, and a structured integer evidence payload.
//
// Determinism bar (same as the journal / SLO engine): every firing
// decision is exact integer or fixed-point window math — comparisons are
// cross-multiplications, never divisions, and no float ever feeds a
// threshold. ObserveTick must only be called from serial sections, so the
// alert stream (ids, open/resolve ticks, journal events) is bit-identical
// across `--threads 1` vs N and, for a fixed shard count K, across any
// thread count. Wall-clock time appears only as *evidence* on the
// solve-regression alert; the firing signal is the solver's deterministic
// effort counters (explored paths + rounds + prunes), which the
// equivalence tests already pin across thread counts.
//
// Alerts are first-class journal events (Cause::kAlertOpened /
// kAlertResolved), export as aladdin_alerts_* Prometheus metrics, and
// render on the listener's /alertz endpoint (RenderAlertz / JSON).
//
// Layering: obs sits below cluster/core/k8s, so the engine consumes a
// plain-integer WatchdogTickInput assembled by the k8s resolver.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/journal.h"

namespace aladdin::obs {

// Closed detector vocabulary. tools/explain.py and check_journal.py key on
// the names; extend only together with kAlertKindNames in watchdog.cpp.
enum class AlertKind : std::uint8_t {  // analyze:closed_enum
  kSloBurnRate = 0,   // fast+slow window burn >= multiple x error budget
  kPendingAgeDrift,   // pending-age p99 >= multiple x trailing baseline
  kAppFlapping,       // lifecycle-epoch re-opens per app over a window
  kShardImbalance,    // max/median shard utilization or spill ratio
  kSolveRegression,   // solve effort >= multiple x trailing baseline
  kCauseMixShift,     // give-up cause histogram L1 vs trailing window
  kCount
};

[[nodiscard]] const char* AlertKindName(AlertKind kind);

enum class AlertSeverity : std::uint8_t {  // analyze:closed_enum
  kWarning = 0,  // breached the configured threshold
  kCritical,     // breached twice the configured threshold
  kCount
};

[[nodiscard]] const char* AlertSeverityName(AlertSeverity severity);

enum class AlertState : std::uint8_t {  // analyze:closed_enum
  kOpen = 0,
  kResolved,
  kCount
};

// Exact-integer evidence snapshot, refreshed on every breaching tick while
// the alert is open. `observed` / `threshold` / `baseline` share one
// detector-specific fixed-point scale (documented per detector with its
// thresholds in watchdog.cpp); `window` is the tick span the math ran over;
// `extra` is detector-specific context (wall micros for kSolveRegression,
// spill permille for kShardImbalance) that never feeds a firing decision.
struct AlertEvidence {
  std::int64_t observed = 0;
  std::int64_t threshold = 0;
  std::int64_t baseline = 0;
  std::int64_t window = 0;
  std::int64_t extra = 0;
};

struct Alert {
  std::int32_t id = -1;  // assigned in open order (deterministic)
  AlertKind kind = AlertKind::kCount;
  AlertSeverity severity = AlertSeverity::kWarning;
  // Alert scope: app id for kAppFlapping, shard id for kShardImbalance,
  // -1 for cluster-wide detectors.
  std::int32_t subject = -1;
  std::int64_t opened_tick = -1;
  std::int64_t last_update_tick = -1;
  std::int64_t resolved_tick = -1;  // -1 while open
  std::int64_t breach_ticks = 0;    // ticks in breach while open
  AlertEvidence evidence;           // latest breaching observation
  AlertState state = AlertState::kOpen;
};

// Detectors fire only after `open_after` consecutive breaching ticks and
// resolve only after `resolve_after` consecutive clear ticks (hysteresis),
// so a signal riding the boundary cannot flap the alert stream. Every
// detector threshold is an exact-integer constant in watchdog.cpp,
// documented there with the detector's firing inequality.
struct WatchdogOptions {
  std::int64_t open_after = 2;
  std::int64_t resolve_after = 2;

  // One switch per detector, in AlertKind order. kSloBurnRate also takes
  // its two window lengths, in ticks: the slow window proves a burn is
  // sustained, the fast one makes detection and resolution prompt.
  bool slo_burn = true;
  std::int64_t burn_fast_window = 4;
  std::int64_t burn_slow_window = 16;
  bool pending_drift = true;
  bool app_flapping = true;
  bool shard_imbalance = true;
  bool solve_regression = true;
  bool cause_mix = true;
};

// One shard's load over the most recent solve: reported by
// core::ShardedScheduler, rendered by /statusz and read by the imbalance
// detector. Every field but solve_seconds is an exact integer; the wall
// time is display evidence that no detector reads.
struct ShardLoad {
  std::int32_t shard = 0;
  std::size_t machines = 0;
  std::size_t routed = 0;    // containers assigned (incl. spill retries)
  std::size_t spilled = 0;   // routed arrivals from spill rounds (>= 1)
  std::size_t placed = 0;    // containers admitted by this shard's solver
  std::size_t unplaced = 0;  // terminal give-ups attributed to this shard
  // End-of-tick cpu occupancy of the shard's machines, exact cpu-millis.
  std::int64_t free_cpu_millis = 0;
  std::int64_t capacity_cpu_millis = 0;
  double solve_seconds = 0.0;

  // Used cpu / capacity in exact integer permille (0 for an empty shard).
  [[nodiscard]] std::int64_t UtilPermille() const {
    if (capacity_cpu_millis <= 0) return 0;
    return (capacity_cpu_millis - free_cpu_millis) * 1000 /
           capacity_cpu_millis;
  }
};

// One tick's detector inputs, assembled by the k8s resolver from the SLO
// engine, lifecycle ledger, shard stats and schedule outcome. Every signal
// is an exact integer; vectors are in ascending key order (the supplier's
// obligation) so window state updates deterministically.
struct WatchdogTickInput {
  std::int64_t tick = 0;
  // kSloBurnRate: this tick's burn-slot counts + the objective's budget.
  std::int64_t slo_good = 0;
  std::int64_t slo_bad = 0;
  std::int64_t slo_budget_bp = 100;
  // kPendingAgeDrift.
  std::int64_t pending_age_p99 = 0;
  std::int64_t pending_open = 0;
  // kAppFlapping: (app, re-opens this tick), ascending by app.
  std::vector<std::pair<std::int32_t, std::int64_t>> app_reopens;
  // kShardImbalance: ascending by shard; empty when K <= 1.
  std::vector<ShardLoad> shards;
  // kSolveRegression: deterministic effort + wall-clock evidence.
  std::int64_t solve_cost = 0;
  std::int64_t solve_wall_micros = 0;  // evidence only, never a signal
  // kCauseMixShift: give-up causes this tick, ascending by cause.
  std::vector<std::pair<Cause, std::int64_t>> giveup_causes;
};

struct WatchdogSnapshot {
  bool enabled = false;
  std::int64_t tick = -1;
  std::int64_t opened_total = 0;
  std::int64_t resolved_total = 0;
  std::int64_t open_now = 0;
  std::array<std::int64_t, static_cast<std::size_t>(AlertKind::kCount)>
      open_by_kind{};
  std::array<std::int64_t, static_cast<std::size_t>(AlertKind::kCount)>
      opened_by_kind{};
  // Every alert ever opened, in id order (open and resolved).
  std::vector<Alert> alerts;
};

class Watchdog {
 public:
  explicit Watchdog(WatchdogOptions options = {});

  [[nodiscard]] const WatchdogOptions& options() const { return options_; }

  // Runs every detector over one tick's inputs and steps each alert's
  // open/update/resolve lifecycle. Serial-section contract as EmitDecision:
  // journal events and alert ids are assigned in call order.
  void ObserveTick(const WatchdogTickInput& input);

  [[nodiscard]] WatchdogSnapshot Snapshot() const;

  [[nodiscard]] std::int64_t opened_total() const { return opened_total_; }
  [[nodiscard]] std::int64_t resolved_total() const { return resolved_total_; }
  [[nodiscard]] std::int64_t open_now() const { return open_now_; }

  // FNV-1a over every alert transition (open/resolve tick, kind, subject,
  // severity, evidence) — the bit-identity fingerprint the determinism
  // tests compare across thread and shard counts.
  [[nodiscard]] std::uint64_t Fingerprint() const { return fingerprint_; }

 private:
  // Hysteresis state for one (kind, subject) signal.
  struct SignalState {
    std::int32_t subject = -1;
    std::int64_t breach_streak = 0;
    std::int64_t clear_streak = 0;
    std::int32_t open_alert = -1;  // index into alerts_, -1 when closed
  };

  // Advances one signal's hysteresis given this tick's breach verdict.
  void StepSignal(AlertKind kind, SignalState& signal, bool breached,
                  bool critical, const AlertEvidence& evidence,
                  std::int64_t tick);
  void OpenAlert(AlertKind kind, SignalState& signal, bool critical,
                 const AlertEvidence& evidence, std::int64_t tick);
  void ResolveAlert(SignalState& signal, std::int64_t tick);
  SignalState& SubjectSignal(std::vector<SignalState>& signals,
                             std::int32_t subject);
  void Fold(std::uint64_t value);

  void CheckSloBurn(const WatchdogTickInput& input);
  void CheckPendingDrift(const WatchdogTickInput& input);
  void CheckAppFlapping(const WatchdogTickInput& input);
  void CheckShardImbalance(const WatchdogTickInput& input);
  void CheckSolveRegression(const WatchdogTickInput& input);
  void CheckCauseMix(const WatchdogTickInput& input);

  WatchdogOptions options_;
  std::int64_t tick_ = -1;
  std::int64_t opened_total_ = 0;
  std::int64_t resolved_total_ = 0;
  std::int64_t open_now_ = 0;
  std::array<std::int64_t, static_cast<std::size_t>(AlertKind::kCount)>
      open_by_kind_{};
  std::array<std::int64_t, static_cast<std::size_t>(AlertKind::kCount)>
      opened_by_kind_{};
  std::vector<Alert> alerts_;  // full history, dense by alert id
  std::uint64_t fingerprint_ = 14695981039346656037ull;  // FNV-1a offset

  // (1) dual burn windows: rings of per-tick (good, bad).
  struct BurnSlot {
    std::int64_t good = 0;
    std::int64_t bad = 0;
  };
  std::vector<BurnSlot> burn_fast_ring_;
  std::vector<BurnSlot> burn_slow_ring_;
  std::size_t burn_head_fast_ = 0;
  std::size_t burn_head_slow_ = 0;
  std::int64_t burn_seen_ = 0;  // ticks observed (window warm-up)
  SignalState burn_signal_;

  // (2) trailing p99 baseline ring (previous ticks, current excluded).
  std::vector<std::int64_t> drift_ring_;
  std::size_t drift_head_ = 0;
  std::int64_t drift_seen_ = 0;
  SignalState drift_signal_;

  // (3) per-app re-open windows: ring of per-tick (app, count) deltas;
  // window sums kept dense by app. Signals keyed by app subject.
  std::vector<std::vector<std::pair<std::int32_t, std::int64_t>>> flap_ring_;
  std::size_t flap_head_ = 0;
  std::vector<std::int64_t> flap_window_sum_;  // dense by app id
  std::vector<SignalState> flap_signals_;      // ascending by subject

  // (4) imbalance: stateless per tick bar the hysteresis signal. The
  // signal is cluster-wide (one imbalance alert at a time); the subject
  // records the hottest shard at open.
  SignalState imbalance_signal_;

  // (5) trailing solve-cost baseline ring.
  std::vector<std::int64_t> latency_ring_;
  std::size_t latency_head_ = 0;
  std::int64_t latency_seen_ = 0;
  SignalState latency_signal_;

  // (6) trailing cause histogram: ring of per-tick dense histograms.
  using CauseCounts =
      std::array<std::int64_t, static_cast<std::size_t>(Cause::kCount)>;
  std::vector<CauseCounts> causemix_ring_;
  std::size_t causemix_head_ = 0;
  std::int64_t causemix_seen_ = 0;
  CauseCounts causemix_base_{};  // running window sum
  SignalState causemix_signal_;
};

// /alertz renderers (human table / JSON) over the published snapshot —
// called from the listener's HTTP thread on a copy, same contract as
// RenderStatusz / RenderSloJson.
[[nodiscard]] std::string RenderAlertz(const WatchdogSnapshot& snapshot);
[[nodiscard]] std::string RenderAlertsJson(const WatchdogSnapshot& snapshot);

}  // namespace aladdin::obs
