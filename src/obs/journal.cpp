#include "obs/journal.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
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

// Per-thread ring, same discipline as obs/trace: fixed capacity, oldest
// overwritten, drops counted, shared ownership so records survive thread
// exit and are still drained at end of run.
struct ThreadBuffer {
  explicit ThreadBuffer(std::size_t capacity) : ring(capacity) {}

  void Append(const Decision& decision) {
    MutexLock lock(mutex);
    if (ring.empty()) return;
    ring[head] = decision;
    head = (head + 1) % ring.size();
    if (size < ring.size()) {
      ++size;
    } else {
      ++dropped;
    }
  }

  Mutex mutex;
  std::vector<Decision> ring
      ALADDIN_GUARDED_BY(mutex);  // fixed capacity; oldest overwritten
  std::size_t head ALADDIN_GUARDED_BY(mutex) = 0;  // next write position
  std::size_t size ALADDIN_GUARDED_BY(mutex) = 0;
  std::uint64_t dropped ALADDIN_GUARDED_BY(mutex) = 0;
};

struct JournalRegistry {
  Mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers
      ALADDIN_GUARDED_BY(mutex);
  std::size_t ring_capacity ALADDIN_GUARDED_BY(mutex) =
      JournalOptions{}.ring_capacity;
  std::string sink_path ALADDIN_GUARDED_BY(mutex);
  // Open iff sink_path is non-empty and Start succeeded.
  std::ofstream sink ALADDIN_GUARDED_BY(mutex);

  std::atomic<std::uint64_t> next_seq{0};
  std::atomic<std::uint64_t> emitted{0};
  std::atomic<std::int64_t> tick{0};
};

JournalRegistry& Journal() {
  static JournalRegistry* registry = new JournalRegistry();  // never destroyed
  return *registry;
}

ThreadBuffer& ThisThreadBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    JournalRegistry& registry = Journal();
    MutexLock lock(registry.mutex);
    auto created = std::make_shared<ThreadBuffer>(registry.ring_capacity);
    registry.buffers.push_back(created);
    return created;
  }();
  return *buffer;
}

// Collects every buffered record in seq order, optionally clearing the
// rings. The registry lock is held across the buffer sweep so a concurrent
// StartJournal cannot resize rings mid-collection.
std::vector<Decision> Collect(bool clear) {
  JournalRegistry& registry = Journal();
  std::vector<Decision> out;
  MutexLock lock(registry.mutex);
  for (const std::shared_ptr<ThreadBuffer>& buffer : registry.buffers) {
    MutexLock buffer_lock(buffer->mutex);
    const std::size_t capacity = buffer->ring.size();
    if (capacity > 0) {
      const std::size_t oldest =
          (buffer->head + capacity - buffer->size) % capacity;
      for (std::size_t k = 0; k < buffer->size; ++k) {
        out.push_back(buffer->ring[(oldest + k) % capacity]);
      }
    }
    if (clear) {
      buffer->head = 0;
      buffer->size = 0;
    }
  }
  std::sort(out.begin(), out.end(), [](const Decision& a, const Decision& b) {
    return a.seq < b.seq;
  });
  return out;
}

// Flight-recorder dump on ALADDIN_CHECK failure: write whatever the rings
// still hold next to the sink (or to a default name in flight-recorder
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

// --- minimal JSON field scanners for DecisionFromJson ----------------------

bool FindRawValue(const std::string& line, const std::string& key,
                  std::string* out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  std::size_t begin = at + needle.size();
  while (begin < line.size() && line[begin] == ' ') ++begin;
  std::size_t end = begin;
  if (begin < line.size() && line[begin] == '"') {
    end = line.find('"', begin + 1);
    if (end == std::string::npos) return false;
    *out = line.substr(begin + 1, end - begin - 1);
    return true;
  }
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  if (end == begin) return false;
  *out = line.substr(begin, end - begin);
  return true;
}

bool FindInt(const std::string& line, const std::string& key,
             std::int64_t* out) {
  std::string raw;
  if (!FindRawValue(line, key, &raw)) return false;
  char* parse_end = nullptr;
  const long long value = std::strtoll(raw.c_str(), &parse_end, 10);
  if (parse_end == raw.c_str() || *parse_end != '\0') return false;
  *out = static_cast<std::int64_t>(value);
  return true;
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

Cause CauseFromName(const std::string& name) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(Cause::kCount); ++i) {
    if (name == kCauseNames[i]) return static_cast<Cause>(i);
  }
  return Cause::kCount;
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
    registry.ring_capacity = options.ring_capacity;
    for (const std::shared_ptr<ThreadBuffer>& buffer : registry.buffers) {
      MutexLock buffer_lock(buffer->mutex);
      buffer->ring.assign(options.ring_capacity, Decision{});
      buffer->head = 0;
      buffer->size = 0;
      buffer->dropped = 0;
    }
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
    registry.next_seq.store(0, std::memory_order_relaxed);
    registry.emitted.store(0, std::memory_order_relaxed);
    registry.tick.store(0, std::memory_order_relaxed);
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
  registry.tick.store(tick, std::memory_order_relaxed);
  bool has_sink = false;
  {
    MutexLock lock(registry.mutex);
    has_sink = registry.sink.is_open();
  }
  if (has_sink) (void)FlushJournal();
}

std::int64_t JournalTick() {
  return Journal().tick.load(std::memory_order_relaxed);
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
  JournalRegistry& registry = Journal();
  decision.seq = registry.next_seq.fetch_add(1, std::memory_order_relaxed);
  decision.tick = registry.tick.load(std::memory_order_relaxed);
  registry.emitted.fetch_add(1, std::memory_order_relaxed);
  ThisThreadBuffer().Append(decision);
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
  if (!JournalEnabled() || decisions.empty()) return;
  JournalRegistry& registry = Journal();
  ThreadBuffer& buffer = ThisThreadBuffer();
  for (const Decision& captured : decisions) {
    Decision decision = captured;
    decision.seq = registry.next_seq.fetch_add(1, std::memory_order_relaxed);
    decision.tick = registry.tick.load(std::memory_order_relaxed);
    registry.emitted.fetch_add(1, std::memory_order_relaxed);
    buffer.Append(decision);
  }
}

std::vector<Decision> JournalSnapshot() { return Collect(/*clear=*/false); }

std::uint64_t DroppedJournalDecisions() {
  JournalRegistry& registry = Journal();
  MutexLock lock(registry.mutex);
  std::uint64_t dropped = 0;
  for (const std::shared_ptr<ThreadBuffer>& buffer : registry.buffers) {
    MutexLock buffer_lock(buffer->mutex);
    dropped += buffer->dropped;
  }
  return dropped;
}

std::uint64_t EmittedJournalDecisions() {
  return Journal().emitted.load(std::memory_order_relaxed);
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

bool DecisionFromJson(const std::string& line, Decision* decision) {
  Decision out;
  std::int64_t value = 0;
  std::string kind;
  std::string cause;
  if (!FindInt(line, "seq", &value)) return false;
  out.seq = static_cast<std::uint64_t>(value);
  if (!FindInt(line, "tick", &out.tick)) return false;
  if (!FindRawValue(line, "kind", &kind) ||
      !FindRawValue(line, "cause", &cause)) {
    return false;
  }
  const Cause parsed_cause = CauseFromName(cause);
  if (parsed_cause == Cause::kCount) return false;
  out.cause = parsed_cause;
  bool kind_found = false;
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(DecisionKind::kCount); ++i) {
    if (kind == kKindNames[i]) {
      out.kind = static_cast<DecisionKind>(i);
      kind_found = true;
      break;
    }
  }
  if (!kind_found) return false;
  if (!FindInt(line, "container", &value)) return false;
  out.container = static_cast<std::int32_t>(value);
  if (!FindInt(line, "machine", &value)) return false;
  out.machine = static_cast<std::int32_t>(value);
  if (!FindInt(line, "other", &value)) return false;
  out.other = static_cast<std::int32_t>(value);
  if (!FindInt(line, "detail", &out.detail)) return false;
  // Optional: absent in unsharded journals (defaults to -1).
  if (FindInt(line, "shard", &value)) {
    out.shard = static_cast<std::int32_t>(value);
  }
  *decision = out;
  return true;
}

std::string JournalToJsonl() {
  const std::vector<Decision> decisions = Collect(/*clear=*/false);
  std::string out;
  out.reserve(decisions.size() * 96);
  for (const Decision& d : decisions) {
    out += DecisionToJson(d);
    out += '\n';
  }
  return out;
}

bool FlushJournal() {
  JournalRegistry& registry = Journal();
  {
    MutexLock lock(registry.mutex);
    if (!registry.sink.is_open()) return true;
  }
  // Collect (which clears the rings) outside the registry write below so the
  // buffer locks are not held while touching the filesystem.
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
