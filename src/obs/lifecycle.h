// Container lifecycle ledger: stitches the per-decision journal stream into
// end-to-end *spans* — arrival tick → solve attempts (with causes) →
// binding / retirement — so "how long did this container wait?" has a
// first-class, queryable answer instead of a journal grep.
//
// Determinism bar (same as the journal): every quantity is an exact integer
// derived from ticks and counts. No wall clocks, no floats in state, and
// all mutation happens from serial resolver sections — so the ledger is
// bit-identical across `--threads 1` vs N (and, for a fixed shard count K,
// across any thread count).
//
// Layering: obs sits below cluster/, so spans speak raw int32 container /
// application ids. The k8s resolver owns the id→name translation.
//
//   LifecycleLedger ledger;
//   ledger.OnArrival(c, app, tick);          // span opens (epoch 0)
//   ledger.OnAttempt(c, cause, tick);        // failed resolve, cause noted
//   ledger.OnPlaced(c, machine, shard, t1);  // span closes, wait = t1 - t0
//   ledger.OnPreempted(c, t2);               // span re-opens (epoch 1)
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "obs/journal.h"

namespace aladdin::obs {

// Where a span currently is. Terminal states are kPlaced and kRetired; a
// preemption re-opens the span as a fresh epoch (kPending again, new
// arrival tick) because the container is back in the admission queue.
enum class SpanState : std::uint8_t {  // analyze:closed_enum
  kNever = 0,  // container id not seen by the ledger yet
  kPending,    // waiting for admission since `arrival_tick`
  kPlaced,     // bound at `terminal_tick`; wait = terminal - arrival
  kRetired,    // pod deleted / externally unbound while tracked
  kCount
};

struct LifecycleSpan {
  std::int32_t container = -1;
  std::int32_t app = -1;
  std::int32_t machine = -1;  // placement machine (kPlaced only)
  std::int32_t shard = -1;    // owning shard of the placement; -1 unsharded
  std::int64_t arrival_tick = -1;   // of the current epoch
  std::int64_t terminal_tick = -1;  // -1 while pending
  std::int64_t attempts = 0;        // failed resolves this epoch
  std::int32_t epoch = 0;           // bumped by each preemption re-open
  SpanState state = SpanState::kNever;
  Cause last_cause = Cause::kNone;  // latest attempt / terminal diagnosis
  // Set once per epoch when pending-age first crosses the SLO objective
  // (or a placement lands past it) so violations count exactly once.
  bool slo_flagged = false;

  // Wait so far: `now - arrival` while pending, `terminal - arrival` once
  // closed. A same-tick placement is a 0-tick wait.
  [[nodiscard]] std::int64_t WaitTicks(std::int64_t now) const {
    const std::int64_t end = terminal_tick >= 0 ? terminal_tick : now;
    return end - arrival_tick;
  }
  // Resolves this epoch has failed by the end of tick `now` — the
  // pending-age the SLO engine compares against the objective. Monotone
  // per epoch (check_journal.py pins the journal-visible projection).
  [[nodiscard]] std::int64_t PendingAge(std::int64_t now) const {
    return now - arrival_tick + 1;
  }
};

// One row of the oldest-pending table (/statusz).
struct PendingRow {
  std::int32_t container = -1;
  std::int32_t app = -1;
  std::int64_t arrival_tick = -1;
  std::int64_t age_ticks = 0;
  std::int64_t attempts = 0;
  Cause last_cause = Cause::kNone;
};

class LifecycleLedger {
 public:
  // Opens a span for `container` at `tick` (idempotent: a container already
  // pending keeps its original arrival). A container previously placed or
  // retired re-opens as a new epoch — the resolver's topology rebuild sends
  // stale-bound pods back to pending this way. Emits kPodArrived into the
  // journal (serial sections only) when a span actually opens.
  void OnArrival(std::int32_t container, std::int32_t app, std::int64_t tick);
  // Records a failed resolve for a pending container.
  void OnAttempt(std::int32_t container, Cause cause, std::int64_t tick);
  // Closes the span as placed; returns the wait in ticks (terminal -
  // arrival), or -1 if no span was open (defensive).
  std::int64_t OnPlaced(std::int32_t container, std::int32_t machine,
                        std::int32_t shard, std::int64_t tick);
  // Re-opens a placed span as a fresh pending epoch arriving at `tick`.
  void OnPreempted(std::int32_t container, std::int64_t tick);
  // Closes the span (pending or placed) as retired.
  void OnRetired(std::int32_t container, std::int64_t tick);

  [[nodiscard]] bool HasOpenSpan(std::int32_t container) const {
    return SpanPtr(container) != nullptr &&
           SpanPtr(container)->state == SpanState::kPending;
  }
  // nullptr until the container's first OnArrival.
  [[nodiscard]] const LifecycleSpan* SpanPtr(std::int32_t container) const;
  [[nodiscard]] LifecycleSpan* MutableSpan(std::int32_t container);

  [[nodiscard]] std::size_t open_spans() const { return open_.size(); }

  // The `limit` oldest open spans, ordered by (arrival_tick, container) —
  // deterministic ties — as /statusz table rows. O(open · log limit).
  [[nodiscard]] std::vector<PendingRow> OldestPending(std::int64_t now,
                                                      std::size_t limit) const;

  // Exact pending-age counts at the end of `now`: result[age] = number of
  // open spans whose PendingAge(now) == age. Basis for the per-tick
  // pending-age percentiles in ResolveStats. O(open + max age).
  [[nodiscard]] std::vector<std::int64_t> PendingAgeCounts(
      std::int64_t now) const;

  // Epoch re-opens (preemptions / stale-binding re-arrivals) recorded
  // since the last drain, as exact (app, count) pairs in ascending app
  // order — the watchdog's flapping-detector input. Drained once per tick
  // from the resolver's serial section; clears the accumulator.
  [[nodiscard]] std::vector<std::pair<std::int32_t, std::int64_t>>
  TakeReopens();

 private:
  LifecycleSpan& Slot(std::int32_t container);
  // Span bookkeeping for the open list: a span entering kPending joins it,
  // one leaving kPending is swap-removed.
  void Open(std::int32_t container);
  void Close(std::int32_t container);

  // Dense by container id: ids are small ints assigned in arrival order, so
  // a vector keeps iteration deterministic (analyzer rule D1) and O(1).
  std::vector<LifecycleSpan> spans_;
  // Container ids of the pending spans, in no particular order (every
  // reader's output is independent of it), and each pending container's
  // index into that list, parallel to spans_. The per-tick readers walk
  // the open list, never the whole history.
  std::vector<std::int32_t> open_;
  std::vector<std::int32_t> open_slot_;
  // Re-opens since the last TakeReopens: dense count by app plus the list
  // of touched apps (kept so the drain is proportional to activity).
  std::vector<std::int64_t> reopen_counts_;
  std::vector<std::int32_t> reopen_apps_;
};

}  // namespace aladdin::obs
