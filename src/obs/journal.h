// Decision provenance journal: a typed, per-tick event stream recording why
// every container ended up where it did — placements, rejections,
// migrations, preemptions and terminal give-ups, each stamped with a
// structured cause code plus the machine/arc context at decision time.
//
//   obs::StartJournal({.jsonl_path = "run.journal.jsonl"});
//   ... run the scheduler (resolver calls SetJournalTick per tick) ...
//   obs::FinishJournal();                 // drain the ring to the sink
//
// Emission sites all live in *serial* sections of the pipeline (the
// augmentation loop, repair/compaction transactions, reconcile); the one
// concurrent section, the sharded coordinator's shard solves, parks its
// records under ScopedDecisionCapture and replays them serially. So the
// global sequence number is assigned in program order and the drained
// stream is bit-identical for any --threads, the same guarantee the metrics
// registry gives.
//
// Storage is one fixed-size ring, sized by StartJournal: oldest records
// overwritten, drops counted. With a JSONL sink configured the ring is
// drained at every tick boundary (SetJournalTick) so nothing wraps on long
// runs; without one it acts as a bounded flight recorder, dumped to disk by
// a common/check failure hook so a crash leaves the last N decisions behind
// (see StartJournal).
//
// Cost when disabled: call sites guard on obs::JournalEnabled() — one
// relaxed atomic load.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/runtime.h"

namespace aladdin::obs {

// Structured cause codes. Every journal record and every
// ScheduleOutcome::unplaced_causes entry carries one of these — free-form
// cause strings in src/ are banned by tools/lint.py so the vocabulary stays
// closed and greppable.
enum class Cause : std::uint8_t {  // analyze:closed_enum
  kNone = 0,
  // Placement causes.
  kAdmittedDirect,       // admissible path found by Algorithm 1
  kAdmittedAfterRepair,  // placed by the migration/preemption repair engine
  kShortLivedBestFit,    // task-based scheduler placement (§IV.D)
  // Rejection / give-up causes (terminal diagnosis against live state).
  kCapacityExhaustedCpu,  // Eq. 6: no machine has the CPU headroom
  kCapacityExhaustedMem,  // Eq. 6: CPU-feasible machines lack memory
  kAntiAffinityIntraApp,  // Eq. 7–8: blocked by the container's own app
  kAntiAffinityInterApp,  // Eq. 7–8: blocked by conflicting applications
  kNoAdmissiblePath,      // mixed/unknown blockers (defensive fallback)
  kRepairAttemptBudget,   // repair gave up after its per-container attempts
  // Movement causes.
  kMigratedForRepair,     // moved aside to admit a blocked container
  kMigratedForRebalance,  // moved by the compaction pass (Fig. 7c)
  kPreemptedByPriority,   // evicted by a strictly heavier aggressor (Eq. 5)
  // Search-effort summary causes (per-Schedule aggregate events, §IV.A).
  kDepthLimitStop,
  kIsomorphismPrune,
  // External / baseline causes.
  kPodRetired,        // container retired by pod deletion / stale binding
  kBaselineUnplaced,  // non-Aladdin engine gave up (catch-all)
  // Lifecycle / SLO causes (obs/lifecycle, obs/slo). All ride on kEvent.
  kPodArrived,    // span open: container first seen pending (other = app)
  kShardRouted,   // routed to shard `other` in round `detail` (K > 1 only)
  kShardSpilled,  // re-routed to shard `other` by spill round `detail`
  kSloViolated,   // pending-age crossed the admission SLO (other = app,
                  // detail = age in ticks at the crossing)
  // Batch-deadline marker, rides on kEvent.
  kBatchDeferred,  // long-lived arrivals held past an off-deadline tick
                   // (k8s resolver --batch_deadline_ticks)
  // Watchdog alert lifecycle (obs/watchdog). Both ride on kEvent:
  // container = alert id, machine = AlertKind, other = subject (app for
  // flapping, shard for imbalance, -1 cluster-wide), detail = observed
  // fixed-point value at open / open duration in ticks at resolve.
  kAlertOpened,
  kAlertResolved,
  kCount
};

[[nodiscard]] const char* CauseName(Cause cause);

enum class DecisionKind : std::uint8_t {  // analyze:closed_enum
  kPlace = 0,  // container bound to a machine
  kReject,     // a scheduling pass could not admit the container (not final)
  kMigrate,    // container moved machine -> machine
  kPreempt,    // container evicted back to pending
  kUnplaced,   // terminal give-up for this Schedule()/Resolve()
  kEvent,      // ambient event (retirements, search-effort summaries)
  kCount
};

[[nodiscard]] const char* DecisionKindName(DecisionKind kind);

// One journal record. Ids are raw int32 values of the cluster:: id types
// (-1 = not applicable) so the record stays a flat POD the ring can copy.
struct Decision {
  std::uint64_t seq = 0;      // global emission order (deterministic)
  std::int64_t tick = 0;      // resolver tick (0 for one-shot Schedule calls)
  DecisionKind kind = DecisionKind::kEvent;
  Cause cause = Cause::kNone;
  std::int32_t container = -1;
  std::int32_t machine = -1;  // destination / rejecting machine
  std::int32_t other = -1;    // context id: source machine for migrations,
                              // aggressor container for preemptions
  std::int64_t detail = 0;    // numeric context (counts, free cpu-millis)
  std::int32_t shard = -1;    // owning shard under core::ShardedScheduler;
                              // -1 (unsharded / K=1) keeps the JSON form
                              // byte-identical to pre-sharding journals
};

struct JournalOptions {
  // Records retained before the oldest are overwritten.
  std::size_t ring_capacity = 1 << 16;
  // JSONL sink; empty means flight-recorder mode (in-memory ring only).
  std::string jsonl_path;
};

// Sizes and clears the ring, opens the sink (if any), installs the
// check-failure flight-recorder hook, and arms the journal mode bit. A sink
// that fails to open is reported and dropped (flight-recorder mode);
// callers that must have the file check JournalSinkOpen() afterwards.
void StartJournal(const JournalOptions& options = {});
// True iff a JSONL sink is currently open.
[[nodiscard]] bool JournalSinkOpen();
// Disarms the bit. Buffered records stay readable until the next Start.
void StopJournal();

// Tick stamp for subsequent decisions. With a sink configured this also
// drains the ring, so it never wraps across ticks.
void SetJournalTick(std::int64_t tick);

// Appends one record (no-op unless the journal bit is armed). Must only be
// called from serial sections — the seq counter is assigned in call order
// and the bit-identity guarantee across --threads depends on it. The one
// sanctioned exception: under a ScopedDecisionCapture the record is parked
// in the capture buffer (no seq assigned) and the serial-section obligation
// moves to the EmitCapturedDecisions replay.
void EmitDecision(DecisionKind kind, Cause cause, std::int32_t container,
                  std::int32_t machine = -1, std::int32_t other = -1,
                  std::int64_t detail = 0);

// Deferred capture for parallel shard solves (core::ShardedScheduler).
//
// While a ScopedDecisionCapture is live on a thread, EmitDecision calls on
// that thread append to `sink` with no sequence number and `shard` stamped,
// instead of reaching the global ring. The coordinator later replays each
// shard's buffer in fixed shard order via EmitCapturedDecisions — which
// assigns seq/tick in call order from a serial section — so the drained
// stream is bit-identical regardless of how many worker threads ran the
// solves. Captures nest (save/restore) and are strictly per-thread.
class ScopedDecisionCapture {
 public:
  ScopedDecisionCapture(std::vector<Decision>* sink, std::int32_t shard);
  ~ScopedDecisionCapture();

  ScopedDecisionCapture(const ScopedDecisionCapture&) = delete;
  ScopedDecisionCapture& operator=(const ScopedDecisionCapture&) = delete;

 private:
  std::vector<Decision>* previous_sink_;
  std::int32_t previous_shard_;
};

// Replays records parked by ScopedDecisionCapture through the normal
// emission path, assigning seq/tick in order. Serial-section contract as
// EmitDecision; the records' shard/kind/cause/id fields pass through.
void EmitCapturedDecisions(const std::vector<Decision>& decisions);

// Everything currently buffered (sink-drained records excluded), in seq
// order. Records overwritten by ring wraparound are gone; see Dropped.
[[nodiscard]] std::vector<Decision> JournalSnapshot();
[[nodiscard]] std::uint64_t DroppedJournalDecisions();
// Records handed to EmitDecision since StartJournal (buffered + drained +
// dropped).
[[nodiscard]] std::uint64_t EmittedJournalDecisions();

// One JSONL line (no trailing newline). tools/check_journal.py and
// tools/explain.py parse the stream.
[[nodiscard]] std::string DecisionToJson(const Decision& decision);

// Appends buffered records to the configured sink and clears the ring.
// No-op (true) without a sink. False on I/O failure.
bool FlushJournal();
// StopJournal + final flush + sink close. False on I/O failure.
bool FinishJournal();

}  // namespace aladdin::obs
