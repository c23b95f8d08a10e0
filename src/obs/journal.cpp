#include "obs/journal.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/log.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace aladdin::obs {
namespace {

const char* const kCauseNames[] = {
    "none",
    "admitted_direct",
    "admitted_after_repair",
    "short_lived_best_fit",
    "capacity_exhausted_cpu",
    "capacity_exhausted_mem",
    "anti_affinity_intra_app",
    "anti_affinity_inter_app",
    "no_admissible_path",
    "repair_attempt_budget",
    "migrated_for_repair",
    "migrated_for_rebalance",
    "preempted_by_priority",
    "depth_limit_stop",
    "isomorphism_prune",
    "pod_retired",
    "baseline_unplaced",
    "pod_arrived",
    "shard_routed",
    "shard_spilled",
    "slo_violated",
    "batch_deferred",
    "alert_opened",
    "alert_resolved",
};
static_assert(sizeof(kCauseNames) / sizeof(kCauseNames[0]) ==
                  static_cast<std::size_t>(Cause::kCount),
              "kCauseNames out of sync with Cause");

const char* const kKindNames[] = {
    "place", "reject", "migrate", "preempt", "unplaced", "event",
};
static_assert(sizeof(kKindNames) / sizeof(kKindNames[0]) ==
                  static_cast<std::size_t>(DecisionKind::kCount),
              "kKindNames out of sync with DecisionKind");

// Every emission runs in a serial section (shard workers park theirs under
// ScopedDecisionCapture), so one ring under the registry lock holds the
// whole stream, and stamping seq under that lock makes ring order seq order.
struct JournalRegistry {
  Mutex mutex;
  // Fixed capacity, oldest overwritten, drops counted. Empty until
  // StartJournal sizes it, so an unjournaled process never pays for it.
  std::vector<Decision> ring ALADDIN_GUARDED_BY(mutex);
  std::size_t head ALADDIN_GUARDED_BY(mutex) = 0;  // next write position
  std::size_t size ALADDIN_GUARDED_BY(mutex) = 0;
  std::uint64_t dropped ALADDIN_GUARDED_BY(mutex) = 0;
  std::uint64_t next_seq ALADDIN_GUARDED_BY(mutex) = 0;
  std::uint64_t emitted ALADDIN_GUARDED_BY(mutex) = 0;
  std::int64_t tick ALADDIN_GUARDED_BY(mutex) = 0;
  std::string sink_path ALADDIN_GUARDED_BY(mutex);
  // Open iff sink_path is non-empty and Start succeeded.
  std::ofstream sink ALADDIN_GUARDED_BY(mutex);
};

JournalRegistry& Journal() {
  static JournalRegistry* registry = new JournalRegistry();  // never destroyed
  return *registry;
}

// Stamps seq/tick on `decision` and appends it to the ring.
void Append(Decision decision) {
  JournalRegistry& registry = Journal();
  MutexLock lock(registry.mutex);
  decision.seq = registry.next_seq++;
  decision.tick = registry.tick;
  ++registry.emitted;
  if (registry.ring.empty()) return;
  registry.ring[registry.head] = decision;
  registry.head = (registry.head + 1) % registry.ring.size();
  if (registry.size < registry.ring.size()) {
    ++registry.size;
  } else {
    ++registry.dropped;
  }
}

// Every buffered record, oldest first (= seq order), optionally clearing
// the ring.
std::vector<Decision> Collect(bool clear) {
  JournalRegistry& registry = Journal();
  std::vector<Decision> out;
  MutexLock lock(registry.mutex);
  const std::size_t capacity = registry.ring.size();
  if (capacity > 0) {
    const std::size_t oldest =
        (registry.head + capacity - registry.size) % capacity;
    out.reserve(registry.size);
    for (std::size_t k = 0; k < registry.size; ++k) {
      out.push_back(registry.ring[(oldest + k) % capacity]);
    }
  }
  if (clear) {
    registry.head = 0;
    registry.size = 0;
  }
  return out;
}

// Flight-recorder dump on ALADDIN_CHECK failure: write whatever the ring
// still holds next to the sink (or to a default name in flight-recorder
// mode), so a crash leaves the last N decisions behind for explain.py.
void CrashDumpJournal() {
  static std::atomic<bool> dumping{false};
  if (dumping.exchange(true)) return;  // re-entrant check: give up
  const std::vector<Decision> decisions = Collect(/*clear=*/false);
  if (decisions.empty()) return;
  std::string path;
  {
    JournalRegistry& registry = Journal();
    MutexLock lock(registry.mutex);
    path = registry.sink_path.empty() ? "aladdin_journal.crash.jsonl"
                                      : registry.sink_path + ".crash";
  }
  // Plain stdio: the process is aborting, so this must not depend on
  // stream-local state; best effort, errors ignored.
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return;
  for (const Decision& d : decisions) {
    const std::string line = DecisionToJson(d);
    std::fwrite(line.data(), 1, line.size(), file);
    std::fputc('\n', file);
  }
  std::fclose(file);
  LOG_ERROR << "journal flight recorder dumped " << decisions.size()
            << " decisions to " << path;
}

// Per-thread deferred-capture state (ScopedDecisionCapture). A raw pointer
// is enough: the capture scope outlives every EmitDecision it redirects.
struct CaptureState {
  std::vector<Decision>* sink = nullptr;
  std::int32_t shard = -1;
};
thread_local CaptureState g_capture;

}  // namespace

const char* CauseName(Cause cause) {
  const auto i = static_cast<std::size_t>(cause);
  if (i >= static_cast<std::size_t>(Cause::kCount)) return "?";
  return kCauseNames[i];
}

const char* DecisionKindName(DecisionKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  if (i >= static_cast<std::size_t>(DecisionKind::kCount)) return "?";
  return kKindNames[i];
}

void StartJournal(const JournalOptions& options) {
  JournalRegistry& registry = Journal();
  {
    MutexLock lock(registry.mutex);
    registry.ring.assign(options.ring_capacity, Decision{});
    registry.head = 0;
    registry.size = 0;
    registry.dropped = 0;
    registry.next_seq = 0;
    registry.emitted = 0;
    registry.tick = 0;
    if (registry.sink.is_open()) registry.sink.close();
    registry.sink_path = options.jsonl_path;
    if (!registry.sink_path.empty()) {
      registry.sink.open(registry.sink_path,
                         std::ios::out | std::ios::trunc);
      if (!registry.sink) {
        LOG_ERROR << "cannot open journal sink " << registry.sink_path;
        registry.sink_path.clear();
      }
    }
  }
  SetCheckFailureHook(&CrashDumpJournal);
  internal::SetModeBit(kJournal, true);
}

void StopJournal() { internal::SetModeBit(kJournal, false); }

bool JournalSinkOpen() {
  JournalRegistry& registry = Journal();
  MutexLock lock(registry.mutex);
  return registry.sink.is_open();
}

void SetJournalTick(std::int64_t tick) {
  if (!JournalEnabled()) return;
  JournalRegistry& registry = Journal();
  bool has_sink = false;
  {
    MutexLock lock(registry.mutex);
    registry.tick = tick;
    has_sink = registry.sink.is_open();
  }
  if (has_sink) (void)FlushJournal();
}

void EmitDecision(DecisionKind kind, Cause cause, std::int32_t container,
                  std::int32_t machine, std::int32_t other,
                  std::int64_t detail) {
  if (!JournalEnabled()) return;
  Decision decision;
  decision.kind = kind;
  decision.cause = cause;
  decision.container = container;
  decision.machine = machine;
  decision.other = other;
  decision.detail = detail;
  if (g_capture.sink != nullptr) {
    // Parked: no seq yet — the coordinator's serial replay assigns it.
    decision.shard = g_capture.shard;
    g_capture.sink->push_back(decision);
    return;
  }
  Append(decision);
}

ScopedDecisionCapture::ScopedDecisionCapture(std::vector<Decision>* sink,
                                             std::int32_t shard)
    : previous_sink_(g_capture.sink), previous_shard_(g_capture.shard) {
  g_capture.sink = sink;
  g_capture.shard = shard;
}

ScopedDecisionCapture::~ScopedDecisionCapture() {
  g_capture.sink = previous_sink_;
  g_capture.shard = previous_shard_;
}

void EmitCapturedDecisions(const std::vector<Decision>& decisions) {
  if (!JournalEnabled()) return;
  for (const Decision& captured : decisions) Append(captured);
}

std::vector<Decision> JournalSnapshot() { return Collect(/*clear=*/false); }

std::uint64_t DroppedJournalDecisions() {
  JournalRegistry& registry = Journal();
  MutexLock lock(registry.mutex);
  return registry.dropped;
}

std::uint64_t EmittedJournalDecisions() {
  JournalRegistry& registry = Journal();
  MutexLock lock(registry.mutex);
  return registry.emitted;
}

std::string DecisionToJson(const Decision& decision) {
  char buf[240];
  // `shard` is emitted only when assigned (>= 0): unsharded and K=1 runs
  // keep the exact pre-sharding line format, which the bit-identity
  // equivalence tests compare byte for byte.
  if (decision.shard >= 0) {
    std::snprintf(buf, sizeof(buf),
                  "{\"seq\":%llu,\"tick\":%lld,\"kind\":\"%s\","
                  "\"cause\":\"%s\",\"container\":%d,\"machine\":%d,"
                  "\"other\":%d,\"detail\":%lld,\"shard\":%d}",
                  static_cast<unsigned long long>(decision.seq),
                  static_cast<long long>(decision.tick),
                  DecisionKindName(decision.kind), CauseName(decision.cause),
                  decision.container, decision.machine, decision.other,
                  static_cast<long long>(decision.detail), decision.shard);
    return buf;
  }
  std::snprintf(buf, sizeof(buf),
                "{\"seq\":%llu,\"tick\":%lld,\"kind\":\"%s\","
                "\"cause\":\"%s\",\"container\":%d,\"machine\":%d,"
                "\"other\":%d,\"detail\":%lld}",
                static_cast<unsigned long long>(decision.seq),
                static_cast<long long>(decision.tick),
                DecisionKindName(decision.kind), CauseName(decision.cause),
                decision.container, decision.machine, decision.other,
                static_cast<long long>(decision.detail));
  return buf;
}

bool FlushJournal() {
  JournalRegistry& registry = Journal();
  {
    MutexLock lock(registry.mutex);
    if (!registry.sink.is_open()) return true;
  }
  // Collect (which clears the ring) takes the lock itself; the write below
  // re-takes it.
  const std::vector<Decision> decisions = Collect(/*clear=*/true);
  MutexLock lock(registry.mutex);
  if (!registry.sink.is_open()) return true;
  for (const Decision& d : decisions) {
    registry.sink << DecisionToJson(d) << '\n';
  }
  registry.sink.flush();
  if (!registry.sink) {
    LOG_ERROR << "failed writing journal sink " << registry.sink_path;
    return false;
  }
  return true;
}

bool FinishJournal() {
  StopJournal();
  const bool ok = FlushJournal();
  JournalRegistry& registry = Journal();
  MutexLock lock(registry.mutex);
  if (registry.sink.is_open()) registry.sink.close();
  return ok;
}

}  // namespace aladdin::obs
