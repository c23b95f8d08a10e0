#include "obs/slo.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/mutex.h"
#include "common/strings.h"
#include "obs/metrics.h"

namespace aladdin::obs {

namespace {
// Trailing window (ticks) for the burn rate.
constexpr std::int64_t kBurnWindowTicks = 8;
}  // namespace

std::int64_t PercentileFromCounts(const std::vector<std::int64_t>& counts,
                                  std::int64_t num, std::int64_t den) {
  std::int64_t total = 0;
  for (const std::int64_t c : counts) total += c;
  if (total == 0) return 0;
  const std::int64_t rank = (total * num + den - 1) / den;  // ceil
  std::int64_t seen = 0;
  for (std::size_t v = 0; v < counts.size(); ++v) {
    seen += counts[v];
    if (seen >= rank) return static_cast<std::int64_t>(v);
  }
  return static_cast<std::int64_t>(counts.size()) - 1;
}

PendingAgeStats SummarizePendingAges(
    const std::vector<std::int64_t>& age_counts) {
  PendingAgeStats stats;
  for (std::size_t age = 0; age < age_counts.size(); ++age) {
    if (age_counts[age] <= 0) continue;
    stats.open += static_cast<std::size_t>(age_counts[age]);
    stats.max = static_cast<std::int64_t>(age);
  }
  if (stats.open == 0) return stats;
  stats.p50 = PercentileFromCounts(age_counts, 1, 2);
  stats.p99 = PercentileFromCounts(age_counts, 99, 100);
  stats.p999 = PercentileFromCounts(age_counts, 999, 1000);
  return stats;
}

SloEngine::SloEngine(SloObjective objective) : objective_(objective) {
  ALADDIN_CHECK(objective_.wait_ticks >= 0) << "negative SLO objective";
  burn_ring_.resize(static_cast<std::size_t>(kBurnWindowTicks));
}

void SloEngine::RegisterApp(std::int32_t app, std::string_view name) {
  if (app < 0) return;
  const auto i = static_cast<std::size_t>(app);
  // analyze:allow(A103) amortised growth, bounded by the application universe
  if (i >= app_names_.size()) app_names_.resize(i + 1);
  // analyze:allow(A103) interned once per app (first name wins)
  if (app_names_[i].empty()) app_names_[i].assign(name);
}

SloEngine::AppSlo& SloEngine::AppSlot(std::int32_t app) {
  ALADDIN_CHECK(app >= 0) << "SLO accounting for invalid app";
  const auto i = static_cast<std::size_t>(app);
  // analyze:allow(A103) amortised growth, bounded by the application universe
  if (i >= apps_.size()) apps_.resize(i + 1);
  return apps_[i];
}

void SloEngine::BeginTick(std::int64_t tick) {
  // Advance the ring one slot per elapsed tick (capped at the window size:
  // a longer gap clears the whole window anyway).
  std::int64_t steps = tick_ < 0 ? 1 : tick - tick_;
  steps = std::min<std::int64_t>(
      std::max<std::int64_t>(steps, 0),
      static_cast<std::int64_t>(burn_ring_.size()));
  for (std::int64_t i = 0; i < steps; ++i) {
    burn_head_ = (burn_head_ + 1) % burn_ring_.size();
    burn_ring_[burn_head_] = BurnSlot{};
  }
  tick_ = tick;
}

void SloEngine::CountViolation(LifecycleSpan& span, std::int64_t age_ticks) {
  span.slo_flagged = true;
  ++violations_;
  ++AppSlot(span.app).violations;
  ++burn_ring_[burn_head_].bad;
  if (JournalEnabled()) {
    EmitDecision(DecisionKind::kEvent, Cause::kSloViolated, span.container,
                 /*machine=*/-1, /*other=*/span.app, /*detail=*/age_ticks);
  }
  ALADDIN_METRIC_ADD("slo/violations", 1);
}

void SloEngine::OnAdmitted(LifecycleSpan& span, std::int64_t wait_ticks) {
  ALADDIN_DCHECK(wait_ticks >= 0) << "negative admission wait";
  // Prometheus: aladdin_admission_wait_ticks (geometric buckets; the exact
  // integer accounting below stays the identity-checked source of truth).
  ALADDIN_METRIC_OBSERVE("admission_wait_ticks", "ticks",
                         static_cast<double>(wait_ticks));
  ++admitted_;
  wait_max_ = std::max(wait_max_, wait_ticks);
  const auto slot = static_cast<std::size_t>(wait_ticks);
  // analyze:allow(A103) dense wait histogram, grows to the max wait seen
  if (slot >= wait_counts_.size()) wait_counts_.resize(slot + 1, 0);
  ++wait_counts_[slot];

  AppSlo& app = AppSlot(span.app);
  ++app.admitted;
  app.wait_sum += wait_ticks;
  app.wait_max = std::max(app.wait_max, wait_ticks);
  // analyze:allow(A103) dense wait histogram, grows to the max wait seen
  if (slot >= app.wait_counts.size()) app.wait_counts.resize(slot + 1, 0);
  ++app.wait_counts[slot];

  if (span.shard >= 0) {
    const auto s = static_cast<std::size_t>(span.shard);
    // analyze:allow(A103) grown once to the shard count
    if (s >= shards_.size()) shards_.resize(s + 1);
    ++shards_[s].admitted;
    shards_[s].wait_max = std::max(shards_[s].wait_max, wait_ticks);
  }

  if (wait_ticks <= objective_.wait_ticks) {
    ++within_;
    ++app.within;
    if (span.shard >= 0) {
      ++shards_[static_cast<std::size_t>(span.shard)].within;
    }
    ++burn_ring_[burn_head_].good;
  } else if (!span.slo_flagged) {
    // Placed late without ever being seen pending past the objective
    // (arrival and crossing inside the same resolve window).
    CountViolation(span, wait_ticks);
  }
}

void SloEngine::ObservePending(LifecycleSpan& span, std::int64_t now) {
  if (span.slo_flagged) return;
  const std::int64_t age = span.PendingAge(now);
  // A span pending at the end of `now` places at `now + 1` at the
  // earliest, so its eventual wait is >= age; crossing is final.
  if (age > objective_.wait_ticks) CountViolation(span, age);
}

std::int64_t SloEngine::budget_bp() const {
  const auto bp =
      static_cast<std::int64_t>(std::llround((100.0 - objective_.percent) *
                                             100.0));
  return std::max<std::int64_t>(bp, 1);
}

SloSnapshot SloEngine::Snapshot(std::size_t app_rows) const {
  SloSnapshot snap;
  snap.objective = objective_;
  snap.tick = tick_;
  snap.admitted = admitted_;
  snap.within = within_;
  snap.violations = violations_;
  snap.wait_max = wait_max_;
  snap.p50 = PercentileFromCounts(wait_counts_, 1, 2);
  snap.p99 = PercentileFromCounts(wait_counts_, 99, 100);
  snap.p999 = PercentileFromCounts(wait_counts_, 999, 1000);
  const std::int64_t judged = within_ + violations_;
  snap.attainment_pct =
      judged == 0 ? 100.0
                  : 100.0 * static_cast<double>(within_) /
                        static_cast<double>(judged);

  std::int64_t good = 0;
  std::int64_t bad = 0;
  for (const BurnSlot& slot : burn_ring_) {
    good += slot.good;
    bad += slot.bad;
  }
  const double budget = std::max((100.0 - objective_.percent) / 100.0, 1e-9);
  snap.burn_rate = (good + bad) == 0
                       ? 0.0
                       : (static_cast<double>(bad) /
                          static_cast<double>(good + bad)) /
                             budget;

  // Rank (violations, admitted, app) keys, then build rows — a name copy
  // and three percentile walks each — only for the `app_rows` worst.
  // Worst-first, deterministic ties: most violations, then most admitted
  // (busiest), then app id. A total order, so the partial sort's prefix
  // is the full sort's.
  rank_scratch_.clear();
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    const AppSlo& app = apps_[i];
    if (app.admitted == 0 && app.violations == 0) continue;
    rank_scratch_.push_back(RankKey{app.violations, app.admitted,
                                    static_cast<std::int32_t>(i)});
  }
  snap.apps_total = rank_scratch_.size();
  const std::size_t rows = std::min(app_rows, rank_scratch_.size());
  std::partial_sort(rank_scratch_.begin(),
                    rank_scratch_.begin() + static_cast<std::ptrdiff_t>(rows),
                    rank_scratch_.end(),
                    [](const RankKey& a, const RankKey& b) {
                      if (a.violations != b.violations) {
                        return a.violations > b.violations;
                      }
                      if (a.admitted != b.admitted) {
                        return a.admitted > b.admitted;
                      }
                      return a.app < b.app;
                    });
  for (std::size_t r = 0; r < rows; ++r) {
    const auto i = static_cast<std::size_t>(rank_scratch_[r].app);
    const AppSlo& app = apps_[i];
    SloAppRow row;
    row.app = rank_scratch_[r].app;
    if (i < app_names_.size()) row.name = app_names_[i];
    row.admitted = app.admitted;
    row.within = app.within;
    row.violations = app.violations;
    row.wait_max = app.wait_max;
    row.p50 = PercentileFromCounts(app.wait_counts, 1, 2);
    row.p99 = PercentileFromCounts(app.wait_counts, 99, 100);
    row.p999 = PercentileFromCounts(app.wait_counts, 999, 1000);
    snap.apps.push_back(std::move(row));
  }

  for (std::size_t s = 0; s < shards_.size(); ++s) {
    SloShardRow row;
    row.shard = static_cast<std::int32_t>(s);
    row.admitted = shards_[s].admitted;
    row.within = shards_[s].within;
    row.wait_max = shards_[s].wait_max;
    snap.shards.push_back(row);
  }
  return snap;
}

// ---------------------------------------------------------------------------
// Introspection hub.

namespace {

struct IntrospectionHub {
  Mutex mutex;
  IntrospectionStatus status ALADDIN_GUARDED_BY(mutex);
  bool published ALADDIN_GUARDED_BY(mutex) = false;
};

IntrospectionHub& Hub() {
  // analyze:allow(A101) allocated once per process, intentionally leaked
  static IntrospectionHub* const hub = new IntrospectionHub;
  return *hub;
}

}  // namespace

void PublishIntrospection(IntrospectionStatus status) {
  IntrospectionHub& hub = Hub();
  MutexLock lock(hub.mutex);
  hub.status = std::move(status);
  hub.published = true;
}

IntrospectionStatus IntrospectionSnapshot() {
  IntrospectionHub& hub = Hub();
  MutexLock lock(hub.mutex);
  return hub.status;
}

bool IntrospectionPublished() {
  IntrospectionHub& hub = Hub();
  MutexLock lock(hub.mutex);
  return hub.published;
}

std::string RenderStatusz(const IntrospectionStatus& status) {
  std::string out;
  out.reserve(1024);
  AppendF(out, "aladdin statusz — tick %lld\n",
          static_cast<long long>(status.tick));
  const SloSnapshot& slo = status.slo;
  AppendF(out,
          "objective: %.2f%% of containers placed within %lld tick(s), "
          "burn window %lld tick(s)\n",
          slo.objective.percent,
          static_cast<long long>(slo.objective.wait_ticks),
          static_cast<long long>(kBurnWindowTicks));
  AppendF(out,
          "slo: admitted=%lld within=%lld violations=%lld "
          "attainment=%.2f%% burn=%.2f\n",
          static_cast<long long>(slo.admitted),
          static_cast<long long>(slo.within),
          static_cast<long long>(slo.violations), slo.attainment_pct,
          slo.burn_rate);
  AppendF(out, "wait ticks: p50=%lld p99=%lld p999=%lld max=%lld\n",
          static_cast<long long>(slo.p50), static_cast<long long>(slo.p99),
          static_cast<long long>(slo.p999),
          static_cast<long long>(slo.wait_max));
  AppendF(out, "pending: open=%zu age p50=%lld p99=%lld p999=%lld max=%lld\n",
          status.pending_ages.open,
          static_cast<long long>(status.pending_ages.p50),
          static_cast<long long>(status.pending_ages.p99),
          static_cast<long long>(status.pending_ages.p999),
          static_cast<long long>(status.pending_ages.max));

  if (!status.shards.empty()) {
    AppendF(out, "\n%5s %9s %8s %8s %9s %9s %9s %8s\n", "shard", "machines",
            "routed", "placed", "unplaced", "solve_ms", "admitted", "within");
    for (const ShardLoad& shard : status.shards) {
      std::int64_t admitted = 0;
      std::int64_t within = 0;
      for (const SloShardRow& row : slo.shards) {
        if (row.shard == shard.shard) {
          admitted = row.admitted;
          within = row.within;
          break;
        }
      }
      AppendF(out, "%5d %9zu %8zu %8zu %9zu %9.2f %9lld %8lld\n", shard.shard,
              shard.machines, shard.routed, shard.placed, shard.unplaced,
              shard.solve_seconds * 1e3, static_cast<long long>(admitted),
              static_cast<long long>(within));
    }
  }

  if (!status.oldest_pending.empty()) {
    AppendF(out, "\noldest pending\n%9s %-24s %6s %8s %s\n", "container",
            "app", "age", "attempts", "cause");
    for (std::size_t i = 0; i < status.oldest_pending.size(); ++i) {
      const PendingRow& row = status.oldest_pending[i];
      const char* name = i < status.oldest_pending_app.size()
                             ? status.oldest_pending_app[i].c_str()
                             : "";
      AppendF(out, "%9d %-24s %6lld %8lld %s\n", row.container, name,
              static_cast<long long>(row.age_ticks),
              static_cast<long long>(row.attempts), CauseName(row.last_cause));
    }
  }
  return out;
}

std::string RenderSloJson(const IntrospectionStatus& status) {
  const SloSnapshot& slo = status.slo;
  std::string out;
  out.reserve(1024);
  AppendF(out, "{\"tick\":%lld,", static_cast<long long>(status.tick));
  AppendF(out,
          "\"objective\":{\"wait_ticks\":%lld,\"percent\":%.4f,"
          "\"burn_window_ticks\":%lld},",
          static_cast<long long>(slo.objective.wait_ticks),
          slo.objective.percent,
          static_cast<long long>(kBurnWindowTicks));
  AppendF(out,
          "\"admitted\":%lld,\"within\":%lld,\"violations\":%lld,"
          "\"attainment_pct\":%.4f,\"burn_rate\":%.4f,",
          static_cast<long long>(slo.admitted),
          static_cast<long long>(slo.within),
          static_cast<long long>(slo.violations), slo.attainment_pct,
          slo.burn_rate);
  AppendF(out, "\"wait\":{\"p50\":%lld,\"p99\":%lld,\"p999\":%lld,\"max\":%lld},",
          static_cast<long long>(slo.p50), static_cast<long long>(slo.p99),
          static_cast<long long>(slo.p999),
          static_cast<long long>(slo.wait_max));
  AppendF(out,
          "\"pending\":{\"open\":%zu,\"p50\":%lld,\"p99\":%lld,"
          "\"p999\":%lld,\"max\":%lld},",
          status.pending_ages.open,
          static_cast<long long>(status.pending_ages.p50),
          static_cast<long long>(status.pending_ages.p99),
          static_cast<long long>(status.pending_ages.p999),
          static_cast<long long>(status.pending_ages.max));
  AppendF(out, "\"apps_total\":%zu,\"apps\":[", slo.apps_total);
  for (std::size_t i = 0; i < slo.apps.size(); ++i) {
    const SloAppRow& row = slo.apps[i];
    if (i > 0) out += ',';
    AppendF(out, "{\"app\":%d,\"name\":\"", row.app);
    AppendJsonEscaped(out, row.name);
    AppendF(out,
            "\",\"admitted\":%lld,\"within\":%lld,\"violations\":%lld,"
            "\"p50\":%lld,\"p99\":%lld,\"p999\":%lld,\"wait_max\":%lld}",
            static_cast<long long>(row.admitted),
            static_cast<long long>(row.within),
            static_cast<long long>(row.violations),
            static_cast<long long>(row.p50), static_cast<long long>(row.p99),
            static_cast<long long>(row.p999),
            static_cast<long long>(row.wait_max));
  }
  out += "],\"shards\":[";
  for (std::size_t i = 0; i < slo.shards.size(); ++i) {
    const SloShardRow& row = slo.shards[i];
    if (i > 0) out += ',';
    AppendF(out,
            "{\"shard\":%d,\"admitted\":%lld,\"within\":%lld,"
            "\"wait_max\":%lld}",
            row.shard, static_cast<long long>(row.admitted),
            static_cast<long long>(row.within),
            static_cast<long long>(row.wait_max));
  }
  out += "]}";
  return out;
}

}  // namespace aladdin::obs
