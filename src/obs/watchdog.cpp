#include "obs/watchdog.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"
#include "common/strings.h"
#include "obs/metrics.h"

namespace aladdin::obs {

namespace {

const char* const kAlertKindNames[] = {
    "slo_burn_rate",    "pending_age_drift", "app_flapping",
    "shard_imbalance",  "solve_regression",  "cause_mix_shift",
};
static_assert(sizeof(kAlertKindNames) / sizeof(kAlertKindNames[0]) ==
                  static_cast<std::size_t>(AlertKind::kCount),
              "kAlertKindNames out of sync with AlertKind");

const char* const kAlertSeverityNames[] = {"warning", "critical"};
static_assert(sizeof(kAlertSeverityNames) / sizeof(kAlertSeverityNames[0]) ==
                  static_cast<std::size_t>(AlertSeverity::kCount),
              "kAlertSeverityNames out of sync with AlertSeverity");

// Detector thresholds. All are exact integers: percentages are *_pct
// (100 = 1x), ratios are permille or basis points as named, and every
// firing test below is a cross-multiplication, never a division.

// (1) kSloBurnRate fires when both burn windows (WatchdogOptions) burn the
// error budget at >= kBurnMultiple x the sustainable rate:
//   bad * 10000 >= kBurnMultiple * budget_bp * (good + bad)
// with budget_bp = (100 - objective.percent) in basis points.
constexpr std::int64_t kBurnMultiple = 8;
constexpr std::int64_t kBurnMinJudged = 16;  // min good+bad, slow window

// (2) kPendingAgeDrift fires when the per-tick pending-age p99 crosses a
// multiple of its trailing-window mean:
//   p99 * 100 * n >= kDriftMultiplePct * sum(window)
// requiring a full window and an absolute floor so an idle cluster
// (baseline ~0) cannot trip on the first queued pod.
constexpr std::int64_t kDriftWindow = 16;
constexpr std::int64_t kDriftMultiplePct = 300;  // p99 >= 3x trailing mean
constexpr std::int64_t kDriftMinP99 = 4;         // absolute floor, in ticks

// (3) kAppFlapping fires per app when its lifecycle-epoch re-opens
// (preemptions / stale-binding re-arrivals) within the trailing window
// reach kFlapThreshold.
constexpr std::int64_t kFlapWindow = 8;
constexpr std::int64_t kFlapThreshold = 3;  // re-opens per window

// (4) kShardImbalance fires when the hottest shard's utilization crosses a
// multiple of the median (max_util * 100 >= kImbalanceMultiplePct * median)
// or the routing spill ratio crosses kSpillPermille
// (spilled * 1000 >= kSpillPermille * routed). Volume floors keep a
// near-empty cluster quiet.
constexpr std::int64_t kImbalanceMultiplePct = 200;      // max >= 2x median
constexpr std::int64_t kImbalanceMinUtilPermille = 200;  // hot-shard floor
constexpr std::int64_t kSpillPermille = 250;             // spilled/routed
constexpr std::int64_t kImbalanceMinRouted = 16;         // spill volume floor

// (5) kSolveRegression fires when the tick's deterministic solve effort
// (explored paths + rounds + prunes, bit-identical across threads) crosses
// a multiple of its trailing-window mean; wall micros are evidence only:
//   cost * 100 * n >= kLatencyMultiplePct * sum(window)
constexpr std::int64_t kLatencyWindow = 16;
constexpr std::int64_t kLatencyMultiplePct = 300;
constexpr std::int64_t kLatencyMinCost = 256;  // absolute effort floor

// (6) kCauseMixShift fires when the tick's give-up cause histogram diverges
// from the trailing window by L1 distance (over exact counts,
// cross-multiplied so no normalization is needed):
//   sum_c |cur[c]*base_total - base[c]*cur_total| * 1000
//       >= kCauseMixL1Permille * cur_total * base_total
// L1 over distributions lives in [0, 2000] permille.
constexpr std::int64_t kCauseMixWindow = 16;
constexpr std::int64_t kCauseMixL1Permille = 600;
constexpr std::int64_t kCauseMixMinCount = 32;  // floor on both totals

// Evidence-only ratio for display: numerator-per-`scale` of denominator,
// 0 when the denominator is empty. Never feeds a firing decision.
std::int64_t DisplayRatio(std::int64_t num, std::int64_t den,
                          std::int64_t scale) {
  return den > 0 ? num * scale / den : 0;
}

}  // namespace

const char* AlertKindName(AlertKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  if (i >= static_cast<std::size_t>(AlertKind::kCount)) return "?";
  return kAlertKindNames[i];
}

const char* AlertSeverityName(AlertSeverity severity) {
  const auto i = static_cast<std::size_t>(severity);
  if (i >= static_cast<std::size_t>(AlertSeverity::kCount)) return "?";
  return kAlertSeverityNames[i];
}

Watchdog::Watchdog(WatchdogOptions options) : options_(options) {
  ALADDIN_CHECK(options_.open_after >= 1) << "watchdog open_after < 1";
  ALADDIN_CHECK(options_.resolve_after >= 1) << "watchdog resolve_after < 1";
  ALADDIN_CHECK(options_.burn_fast_window >= 1 &&
                options_.burn_slow_window >= options_.burn_fast_window)
      << "watchdog burn windows misordered";
  burn_fast_ring_.resize(static_cast<std::size_t>(options_.burn_fast_window));
  burn_slow_ring_.resize(static_cast<std::size_t>(options_.burn_slow_window));
  drift_ring_.resize(static_cast<std::size_t>(kDriftWindow), 0);
  flap_ring_.resize(static_cast<std::size_t>(kFlapWindow));
  latency_ring_.resize(static_cast<std::size_t>(kLatencyWindow), 0);
  causemix_ring_.resize(static_cast<std::size_t>(kCauseMixWindow));
}

void Watchdog::Fold(std::uint64_t value) {
  // FNV-1a, folded per 64-bit word of the transition tuple.
  fingerprint_ = (fingerprint_ ^ value) * 1099511628211ull;
}

Watchdog::SignalState& Watchdog::SubjectSignal(
    std::vector<SignalState>& signals, std::int32_t subject) {
  const auto at = std::lower_bound(
      signals.begin(), signals.end(), subject,
      [](const SignalState& s, std::int32_t key) { return s.subject < key; });
  if (at != signals.end() && at->subject == subject) return *at;
  SignalState fresh;
  fresh.subject = subject;
  return *signals.insert(at, fresh);
}

void Watchdog::OpenAlert(AlertKind kind, SignalState& signal, bool critical,
                         const AlertEvidence& evidence, std::int64_t tick) {
  Alert alert;
  alert.id = static_cast<std::int32_t>(alerts_.size());
  alert.kind = kind;
  alert.severity =
      critical ? AlertSeverity::kCritical : AlertSeverity::kWarning;
  alert.subject = signal.subject;
  alert.opened_tick = tick;
  alert.last_update_tick = tick;
  alert.breach_ticks = signal.breach_streak;
  alert.evidence = evidence;
  alert.state = AlertState::kOpen;
  signal.open_alert = alert.id;
  alerts_.push_back(alert);

  ++opened_total_;
  ++open_now_;
  ++opened_by_kind_[static_cast<std::size_t>(kind)];
  ++open_by_kind_[static_cast<std::size_t>(kind)];
  Fold(1);
  Fold(static_cast<std::uint64_t>(tick));
  Fold(static_cast<std::uint64_t>(kind));
  Fold(static_cast<std::uint64_t>(
      static_cast<std::int64_t>(signal.subject)));
  Fold(static_cast<std::uint64_t>(evidence.observed));
  Fold(static_cast<std::uint64_t>(evidence.threshold));
  EmitDecision(DecisionKind::kEvent, Cause::kAlertOpened, alert.id,
               /*machine=*/static_cast<std::int32_t>(kind),
               /*other=*/signal.subject, /*detail=*/evidence.observed);
  ALADDIN_METRIC_ADD("alerts/opened_total", 1);
}

void Watchdog::ResolveAlert(SignalState& signal, std::int64_t tick) {
  Alert& alert = alerts_[static_cast<std::size_t>(signal.open_alert)];
  alert.state = AlertState::kResolved;
  alert.resolved_tick = tick;
  alert.last_update_tick = tick;
  signal.open_alert = -1;

  ++resolved_total_;
  --open_now_;
  --open_by_kind_[static_cast<std::size_t>(alert.kind)];
  const std::int64_t duration = tick - alert.opened_tick;
  Fold(2);
  Fold(static_cast<std::uint64_t>(tick));
  Fold(static_cast<std::uint64_t>(alert.kind));
  Fold(static_cast<std::uint64_t>(
      static_cast<std::int64_t>(alert.subject)));
  Fold(static_cast<std::uint64_t>(duration));
  EmitDecision(DecisionKind::kEvent, Cause::kAlertResolved, alert.id,
               /*machine=*/static_cast<std::int32_t>(alert.kind),
               /*other=*/alert.subject, /*detail=*/duration);
  ALADDIN_METRIC_ADD("alerts/resolved_total", 1);
}

void Watchdog::StepSignal(AlertKind kind, SignalState& signal, bool breached,
                          bool critical, const AlertEvidence& evidence,
                          std::int64_t tick) {
  if (breached) {
    ++signal.breach_streak;
    signal.clear_streak = 0;
  } else {
    ++signal.clear_streak;
    signal.breach_streak = 0;
  }
  if (signal.open_alert < 0) {
    if (breached && signal.breach_streak >= options_.open_after) {
      OpenAlert(kind, signal, critical, evidence, tick);
    }
    return;
  }
  Alert& alert = alerts_[static_cast<std::size_t>(signal.open_alert)];
  if (breached) {
    alert.last_update_tick = tick;
    ++alert.breach_ticks;
    alert.evidence = evidence;
    if (critical && alert.severity == AlertSeverity::kWarning) {
      alert.severity = AlertSeverity::kCritical;
      Fold(3);
      Fold(static_cast<std::uint64_t>(tick));
      Fold(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(alert.id)));
    }
    return;
  }
  if (signal.clear_streak >= options_.resolve_after) {
    ResolveAlert(signal, tick);
  }
}

void Watchdog::CheckSloBurn(const WatchdogTickInput& input) {
  burn_head_fast_ = (burn_head_fast_ + 1) % burn_fast_ring_.size();
  burn_fast_ring_[burn_head_fast_] = BurnSlot{input.slo_good, input.slo_bad};
  burn_head_slow_ = (burn_head_slow_ + 1) % burn_slow_ring_.size();
  burn_slow_ring_[burn_head_slow_] = BurnSlot{input.slo_good, input.slo_bad};
  ++burn_seen_;

  std::int64_t fast_good = 0;
  std::int64_t fast_bad = 0;
  for (const BurnSlot& slot : burn_fast_ring_) {
    fast_good += slot.good;
    fast_bad += slot.bad;
  }
  std::int64_t slow_good = 0;
  std::int64_t slow_bad = 0;
  for (const BurnSlot& slot : burn_slow_ring_) {
    slow_good += slot.good;
    slow_bad += slot.bad;
  }
  const std::int64_t fast_judged = fast_good + fast_bad;
  const std::int64_t slow_judged = slow_good + slow_bad;
  const std::int64_t budget_bp = std::max<std::int64_t>(input.slo_budget_bp, 1);

  // Both windows must burn at >= multiple x budget: bad/judged >= m * bp/1e4
  // cross-multiplied to exact integers.
  const auto burns_at = [&](std::int64_t multiple) {
    return fast_judged > 0 && slow_judged >= kBurnMinJudged &&
           fast_bad * 10000 >= multiple * budget_bp * fast_judged &&
           slow_bad * 10000 >= multiple * budget_bp * slow_judged;
  };
  const bool warm = burn_seen_ >= options_.burn_slow_window;
  const bool breached = warm && burns_at(kBurnMultiple);
  const bool critical = warm && burns_at(2 * kBurnMultiple);

  AlertEvidence evidence;
  evidence.observed = DisplayRatio(fast_bad, fast_judged, 10000);  // bad bp
  evidence.threshold = kBurnMultiple * budget_bp;
  evidence.baseline = DisplayRatio(slow_bad, slow_judged, 10000);
  evidence.window = options_.burn_fast_window;
  evidence.extra = slow_judged;
  StepSignal(AlertKind::kSloBurnRate, burn_signal_, breached, critical,
             evidence, input.tick);
}

void Watchdog::CheckPendingDrift(const WatchdogTickInput& input) {
  // Baseline is the trailing window of *previous* ticks' p99 samples; the
  // current tick is pushed after the verdict so a spike cannot dilute its
  // own baseline.
  std::int64_t base_sum = 0;
  for (const std::int64_t sample : drift_ring_) base_sum += sample;
  const std::int64_t n = static_cast<std::int64_t>(drift_ring_.size());
  const std::int64_t p99 = input.pending_age_p99;

  const bool warm = drift_seen_ >= kDriftWindow;
  const auto drifts_at = [&](std::int64_t pct) {
    return p99 >= kDriftMinP99 && p99 * 100 * n >= pct * base_sum;
  };
  const bool breached = warm && drifts_at(kDriftMultiplePct);
  const bool critical = warm && drifts_at(2 * kDriftMultiplePct);

  AlertEvidence evidence;
  evidence.observed = p99;
  evidence.threshold = kDriftMultiplePct;
  evidence.baseline = DisplayRatio(base_sum, n, 1);  // trailing mean
  evidence.window = kDriftWindow;
  evidence.extra = input.pending_open;
  StepSignal(AlertKind::kPendingAgeDrift, drift_signal_, breached, critical,
             evidence, input.tick);

  drift_head_ = (drift_head_ + 1) % drift_ring_.size();
  drift_ring_[drift_head_] = p99;
  ++drift_seen_;
}

void Watchdog::CheckAppFlapping(const WatchdogTickInput& input) {
  // Rotate the window: retire the expiring tick's deltas from the running
  // per-app sums, then add this tick's re-opens.
  flap_head_ = (flap_head_ + 1) % flap_ring_.size();
  for (const auto& [app, count] : flap_ring_[flap_head_]) {
    flap_window_sum_[static_cast<std::size_t>(app)] -= count;
  }
  flap_ring_[flap_head_] = input.app_reopens;
  for (const auto& [app, count] : input.app_reopens) {
    if (app < 0) continue;
    const auto i = static_cast<std::size_t>(app);
    // analyze:allow(A103) amortised growth, bounded by the app universe
    if (i >= flap_window_sum_.size()) flap_window_sum_.resize(i + 1, 0);
    flap_window_sum_[i] += count;
  }

  // Step existing signals first (ascending subject), then open signals for
  // newly-breaching apps. Both passes walk ascending app order, so the
  // alert stream is deterministic.
  const auto window_sum = [&](std::int32_t app) {
    const auto i = static_cast<std::size_t>(app);
    return i < flap_window_sum_.size() ? flap_window_sum_[i]
                                       : std::int64_t{0};
  };
  const auto evidence_for = [&](std::int64_t sum, std::int64_t tick_delta) {
    AlertEvidence evidence;
    evidence.observed = sum;
    evidence.threshold = kFlapThreshold;
    evidence.baseline = 0;
    evidence.window = kFlapWindow;
    evidence.extra = tick_delta;
    return evidence;
  };
  const auto tick_delta = [&](std::int32_t app) {
    for (const auto& [a, count] : input.app_reopens) {
      if (a == app) return count;
    }
    return std::int64_t{0};
  };
  for (SignalState& signal : flap_signals_) {
    const std::int64_t sum = window_sum(signal.subject);
    const bool breached = sum >= kFlapThreshold;
    const bool critical = sum >= 2 * kFlapThreshold;
    StepSignal(AlertKind::kAppFlapping, signal, breached, critical,
               evidence_for(sum, tick_delta(signal.subject)), input.tick);
  }
  for (const auto& [app, count] : input.app_reopens) {
    if (app < 0) continue;
    const std::int64_t sum = window_sum(app);
    if (sum < kFlapThreshold) continue;
    const auto at = std::lower_bound(
        flap_signals_.begin(), flap_signals_.end(), app,
        [](const SignalState& s, std::int32_t key) { return s.subject < key; });
    if (at != flap_signals_.end() && at->subject == app) continue;  // stepped
    SignalState& signal = SubjectSignal(flap_signals_, app);
    StepSignal(AlertKind::kAppFlapping, signal,
               /*breached=*/true, /*critical=*/sum >= 2 * kFlapThreshold,
               evidence_for(sum, count), input.tick);
  }
  // Drop signals that fully settled (closed alert, no streak) so the scan
  // above stays proportional to the set of misbehaving apps.
  flap_signals_.erase(
      std::remove_if(flap_signals_.begin(), flap_signals_.end(),
                     [](const SignalState& s) {
                       return s.open_alert < 0 && s.breach_streak == 0;
                     }),
      flap_signals_.end());
}

void Watchdog::CheckShardImbalance(const WatchdogTickInput& input) {
  bool breached = false;
  bool critical = false;
  AlertEvidence evidence;
  std::int32_t subject = imbalance_signal_.subject;
  if (input.shards.size() >= 2) {
    std::int64_t max_util = -1;
    std::int32_t max_util_shard = -1;
    std::int64_t max_spill = -1;
    std::int32_t max_spill_shard = -1;
    std::int64_t routed_total = 0;
    std::int64_t spilled_total = 0;
    // analyze:allow(A102) once-per-tick scratch, bounded by shard count
    std::vector<std::int64_t> utils;
    utils.reserve(input.shards.size());  // analyze:allow(A103) per tick
    for (const ShardLoad& shard : input.shards) {
      const std::int64_t util = shard.UtilPermille();
      const auto spilled = static_cast<std::int64_t>(shard.spilled);
      utils.push_back(util);
      routed_total += static_cast<std::int64_t>(shard.routed);
      spilled_total += spilled;
      if (util > max_util) {
        max_util = util;
        max_util_shard = shard.shard;
      }
      if (spilled > max_spill) {
        max_spill = spilled;
        max_spill_shard = shard.shard;
      }
    }
    std::sort(utils.begin(), utils.end());
    const std::int64_t median = utils[(utils.size() - 1) / 2];

    const auto util_skew_at = [&](std::int64_t pct) {
      return max_util >= kImbalanceMinUtilPermille &&
             max_util * 100 >= pct * median;
    };
    const auto spill_at = [&](std::int64_t permille) {
      return routed_total >= kImbalanceMinRouted &&
             spilled_total * 1000 >= permille * routed_total;
    };
    const bool util_breach = util_skew_at(kImbalanceMultiplePct);
    const bool spill_breach = spill_at(kSpillPermille);
    breached = util_breach || spill_breach;
    critical = util_skew_at(2 * kImbalanceMultiplePct) ||
               spill_at(2 * kSpillPermille);
    subject = util_breach ? max_util_shard : max_spill_shard;

    evidence.observed = util_breach
                            ? max_util
                            : DisplayRatio(spilled_total, routed_total, 1000);
    evidence.threshold = util_breach ? kImbalanceMultiplePct
                                     : kSpillPermille;
    evidence.baseline = median;
    evidence.window = 1;
    evidence.extra = DisplayRatio(spilled_total, routed_total, 1000);
  }
  // The signal is cluster-wide (one imbalance alert open at a time); the
  // subject pins the hottest shard while no alert is open, and stays with
  // the opening shard for the alert's lifetime.
  if (imbalance_signal_.open_alert < 0) imbalance_signal_.subject = subject;
  StepSignal(AlertKind::kShardImbalance, imbalance_signal_, breached,
             critical, evidence, input.tick);
}

void Watchdog::CheckSolveRegression(const WatchdogTickInput& input) {
  std::int64_t base_sum = 0;
  for (const std::int64_t sample : latency_ring_) base_sum += sample;
  const std::int64_t n = static_cast<std::int64_t>(latency_ring_.size());
  const std::int64_t cost = input.solve_cost;

  const bool warm = latency_seen_ >= kLatencyWindow;
  const auto regressed_at = [&](std::int64_t pct) {
    return cost >= kLatencyMinCost &&
           cost * 100 * n >= pct * base_sum;
  };
  const bool breached = warm && regressed_at(kLatencyMultiplePct);
  const bool critical =
      warm && regressed_at(2 * kLatencyMultiplePct);

  AlertEvidence evidence;
  evidence.observed = cost;
  evidence.threshold = kLatencyMultiplePct;
  evidence.baseline = DisplayRatio(base_sum, n, 1);  // trailing mean
  evidence.window = kLatencyWindow;
  evidence.extra = input.solve_wall_micros;  // wall clock: evidence only
  StepSignal(AlertKind::kSolveRegression, latency_signal_, breached, critical,
             evidence, input.tick);

  latency_head_ = (latency_head_ + 1) % latency_ring_.size();
  latency_ring_[latency_head_] = cost;
  ++latency_seen_;
}

void Watchdog::CheckCauseMix(const WatchdogTickInput& input) {
  CauseCounts current{};
  std::int64_t cur_total = 0;
  for (const auto& [cause, count] : input.giveup_causes) {
    current[static_cast<std::size_t>(cause)] += count;
    cur_total += count;
  }
  std::int64_t base_total = 0;
  for (const std::int64_t count : causemix_base_) base_total += count;

  // L1 distance between the tick's distribution and the trailing window's,
  // cross-multiplied: sum_c |cur[c]*B - base[c]*C| * 1000 >= L1 * C * B.
  std::int64_t l1_cross = 0;
  for (std::size_t c = 0; c < current.size(); ++c) {
    const std::int64_t diff =
        current[c] * base_total - causemix_base_[c] * cur_total;
    l1_cross += diff < 0 ? -diff : diff;
  }
  const bool warm = causemix_seen_ >= kCauseMixWindow;
  const auto shifted_at = [&](std::int64_t permille) {
    return cur_total >= kCauseMixMinCount &&
           base_total >= kCauseMixMinCount &&
           l1_cross * 1000 >= permille * cur_total * base_total;
  };
  const bool breached = warm && shifted_at(kCauseMixL1Permille);
  const bool critical = warm && shifted_at(2 * kCauseMixL1Permille);

  AlertEvidence evidence;
  evidence.observed =
      DisplayRatio(l1_cross * 1000, cur_total * base_total, 1);
  evidence.threshold = kCauseMixL1Permille;
  evidence.baseline = base_total;
  evidence.window = kCauseMixWindow;
  evidence.extra = cur_total;
  StepSignal(AlertKind::kCauseMixShift, causemix_signal_, breached, critical,
             evidence, input.tick);

  // Rotate: retire the expiring tick's histogram, admit the current one.
  causemix_head_ = (causemix_head_ + 1) % causemix_ring_.size();
  for (std::size_t c = 0; c < current.size(); ++c) {
    causemix_base_[c] += current[c] - causemix_ring_[causemix_head_][c];
  }
  causemix_ring_[causemix_head_] = current;
  ++causemix_seen_;
}

void Watchdog::ObserveTick(const WatchdogTickInput& input) {
  tick_ = input.tick;
  if (options_.slo_burn) CheckSloBurn(input);
  if (options_.pending_drift) CheckPendingDrift(input);
  if (options_.app_flapping) CheckAppFlapping(input);
  if (options_.shard_imbalance) CheckShardImbalance(input);
  if (options_.solve_regression) CheckSolveRegression(input);
  if (options_.cause_mix) CheckCauseMix(input);
  ALADDIN_METRIC_GAUGE_SET("alerts/open_now", open_now_);
}

WatchdogSnapshot Watchdog::Snapshot() const {
  WatchdogSnapshot snapshot;
  snapshot.enabled = true;
  snapshot.tick = tick_;
  snapshot.opened_total = opened_total_;
  snapshot.resolved_total = resolved_total_;
  snapshot.open_now = open_now_;
  snapshot.open_by_kind = open_by_kind_;
  snapshot.opened_by_kind = opened_by_kind_;
  snapshot.alerts = alerts_;
  return snapshot;
}

std::string RenderAlertz(const WatchdogSnapshot& snapshot) {
  std::string out;
  out.reserve(1024);
  AppendF(out, "aladdin alertz — tick %lld\n",
          static_cast<long long>(snapshot.tick));
  if (!snapshot.enabled) {
    out += "watchdog: disabled (run with --watchdog)\n";
    return out;
  }
  AppendF(out, "alerts: open=%lld opened=%lld resolved=%lld\n",
          static_cast<long long>(snapshot.open_now),
          static_cast<long long>(snapshot.opened_total),
          static_cast<long long>(snapshot.resolved_total));
  for (std::size_t k = 0; k < snapshot.opened_by_kind.size(); ++k) {
    if (snapshot.opened_by_kind[k] == 0) continue;
    AppendF(out, "  %-18s open=%lld opened=%lld\n",
            AlertKindName(static_cast<AlertKind>(k)),
            static_cast<long long>(snapshot.open_by_kind[k]),
            static_cast<long long>(snapshot.opened_by_kind[k]));
  }
  if (snapshot.alerts.empty()) {
    out += "no alerts\n";
    return out;
  }
  AppendF(out, "\n%4s %-18s %-8s %7s %-8s %7s %9s %9s %9s %9s %6s\n", "id",
          "kind", "sev", "subject", "state", "opened", "resolved", "observed",
          "thresh", "baseline", "breach");
  for (const Alert& alert : snapshot.alerts) {
    char resolved[24];
    if (alert.resolved_tick >= 0) {
      std::snprintf(resolved, sizeof(resolved), "%lld",
                    static_cast<long long>(alert.resolved_tick));
    } else {
      std::snprintf(resolved, sizeof(resolved), "-");
    }
    AppendF(out, "%4d %-18s %-8s %7d %-8s %7lld %9s %9lld %9lld %9lld %6lld\n",
            alert.id, AlertKindName(alert.kind),
            AlertSeverityName(alert.severity), alert.subject,
            alert.state == AlertState::kOpen ? "open" : "resolved",
            static_cast<long long>(alert.opened_tick), resolved,
            static_cast<long long>(alert.evidence.observed),
            static_cast<long long>(alert.evidence.threshold),
            static_cast<long long>(alert.evidence.baseline),
            static_cast<long long>(alert.breach_ticks));
  }
  return out;
}

std::string RenderAlertsJson(const WatchdogSnapshot& snapshot) {
  std::string out;
  out.reserve(1024);
  AppendF(out, "{\"enabled\":%s,\"tick\":%lld,",
          snapshot.enabled ? "true" : "false",
          static_cast<long long>(snapshot.tick));
  AppendF(out, "\"open\":%lld,\"opened_total\":%lld,\"resolved_total\":%lld,",
          static_cast<long long>(snapshot.open_now),
          static_cast<long long>(snapshot.opened_total),
          static_cast<long long>(snapshot.resolved_total));
  out += "\"by_kind\":[";
  bool first = true;
  for (std::size_t k = 0; k < snapshot.opened_by_kind.size(); ++k) {
    if (snapshot.opened_by_kind[k] == 0 && snapshot.open_by_kind[k] == 0) {
      continue;
    }
    if (!first) out += ',';
    first = false;
    AppendF(out, "{\"kind\":\"%s\",\"open\":%lld,\"opened\":%lld}",
            AlertKindName(static_cast<AlertKind>(k)),
            static_cast<long long>(snapshot.open_by_kind[k]),
            static_cast<long long>(snapshot.opened_by_kind[k]));
  }
  out += "],\"alerts\":[";
  for (std::size_t i = 0; i < snapshot.alerts.size(); ++i) {
    const Alert& alert = snapshot.alerts[i];
    if (i > 0) out += ',';
    AppendF(out,
            "{\"id\":%d,\"kind\":\"%s\",\"severity\":\"%s\","
            "\"subject\":%d,\"state\":\"%s\",\"opened_tick\":%lld,"
            "\"resolved_tick\":%lld,\"last_update_tick\":%lld,"
            "\"breach_ticks\":%lld,",
            alert.id, AlertKindName(alert.kind),
            AlertSeverityName(alert.severity), alert.subject,
            alert.state == AlertState::kOpen ? "open" : "resolved",
            static_cast<long long>(alert.opened_tick),
            static_cast<long long>(alert.resolved_tick),
            static_cast<long long>(alert.last_update_tick),
            static_cast<long long>(alert.breach_ticks));
    AppendF(out,
            "\"evidence\":{\"observed\":%lld,\"threshold\":%lld,"
            "\"baseline\":%lld,\"window\":%lld,\"extra\":%lld}}",
            static_cast<long long>(alert.evidence.observed),
            static_cast<long long>(alert.evidence.threshold),
            static_cast<long long>(alert.evidence.baseline),
            static_cast<long long>(alert.evidence.window),
            static_cast<long long>(alert.evidence.extra));
  }
  out += "]}";
  return out;
}

}  // namespace aladdin::obs
