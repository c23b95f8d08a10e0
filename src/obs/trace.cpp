#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <vector>

#include "common/log.h"
#include "common/mutex.h"
#include "common/strings.h"
#include "common/thread_annotations.h"

namespace aladdin::obs {
namespace {

enum class Kind : std::uint8_t { kScope, kInstant, kCounter };

// One ring slot. Scopes are complete intervals (recorded at exit); point
// events use start_ns only. `name` points at interned registry storage or a
// string literal — both outlive any flush.
struct Record {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t depth = 0;
  Kind kind = Kind::kScope;
  double value = 0.0;
};

struct ThreadBuffer {
  explicit ThreadBuffer(std::uint32_t tid_in, std::size_t capacity)
      : tid(tid_in), ring(capacity) {}

  void Append(const Record& record) {
    MutexLock lock(mutex);
    if (ring.empty()) return;
    ring[head] = record;
    head = (head + 1) % ring.size();
    if (size < ring.size()) {
      ++size;
    } else {
      ++dropped;
    }
  }

  const std::uint32_t tid;  // set at registration, immutable after
  Mutex mutex;
  std::vector<Record> ring
      ALADDIN_GUARDED_BY(mutex);  // fixed capacity; oldest overwritten
  std::size_t head ALADDIN_GUARDED_BY(mutex) = 0;  // next write position
  std::size_t size ALADDIN_GUARDED_BY(mutex) = 0;
  std::uint64_t dropped ALADDIN_GUARDED_BY(mutex) = 0;
};

struct BufferRegistry {
  Mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers
      ALADDIN_GUARDED_BY(mutex);
  std::size_t ring_capacity ALADDIN_GUARDED_BY(mutex) =
      TraceOptions{}.ring_capacity;
  std::int64_t epoch_ns ALADDIN_GUARDED_BY(mutex) = 0;
};

BufferRegistry& Buffers() {
  static BufferRegistry* registry = new BufferRegistry();  // never destroyed
  return *registry;
}

// The registry shares ownership, so records survive thread exit and are
// still flushed by WriteTrace() at end of run.
ThreadBuffer& ThisThreadBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    BufferRegistry& registry = Buffers();
    MutexLock lock(registry.mutex);
    auto created = std::make_shared<ThreadBuffer>(
        static_cast<std::uint32_t>(registry.buffers.size() + 1),
        registry.ring_capacity);
    registry.buffers.push_back(created);
    return created;
  }();
  return *buffer;
}

thread_local std::int32_t g_scope_depth = 0;

// A serialisable trace event, pre-sort. `ph` is the Chrome event phase.
struct Event {
  const char* name = nullptr;
  char ph = 'B';
  std::int64_t ts_ns = 0;
  std::uint32_t tid = 0;
  double value = 0.0;
};

void AppendEvent(std::string& out, const Event& event, std::int64_t epoch_ns) {
  const double ts_us =
      static_cast<double>(std::max<std::int64_t>(event.ts_ns - epoch_ns, 0)) /
      1000.0;
  char buf[64];
  out += "{\"name\":\"";
  AppendJsonEscaped(out, event.name);
  out += "\",\"cat\":\"aladdin\",\"ph\":\"";
  out += event.ph;
  out += "\",\"ts\":";
  std::snprintf(buf, sizeof(buf), "%.3f", ts_us);
  out += buf;
  out += ",\"pid\":1,\"tid\":";
  std::snprintf(buf, sizeof(buf), "%u", event.tid);
  out += buf;
  if (event.ph == 'i') {
    out += ",\"s\":\"t\"";
  } else if (event.ph == 'C') {
    out += ",\"args\":{\"value\":";
    std::snprintf(buf, sizeof(buf), "%.17g", event.value);
    out += buf;
    out += "}";
  }
  out += "}";
}

void AppendMetadata(std::string& out, const char* kind, std::uint32_t tid,
                    const std::string& value, bool process_scope) {
  out += "{\"name\":\"";
  out += kind;
  out += "\",\"ph\":\"M\",\"ts\":0,\"pid\":1";
  if (!process_scope) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), ",\"tid\":%u", tid);
    out += buf;
  }
  out += ",\"args\":{\"name\":\"";
  AppendJsonEscaped(out, value);
  out += "\"}}";
}

// Expands one thread's complete-scope records into a timestamp-sorted B/E
// event stream. Sorting scopes by (begin asc, end desc, depth asc) makes
// every scope appear after any scope that contains it, so a simple stack
// reproduces the original nesting; inner ends never exceed outer ends, so
// the emitted stream is non-decreasing in ts.
std::vector<Event> ExpandScopes(std::vector<Record>& scopes,
                                std::uint32_t tid) {
  std::sort(scopes.begin(), scopes.end(),
            [](const Record& a, const Record& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.end_ns != b.end_ns) return a.end_ns > b.end_ns;
              return a.depth < b.depth;
            });
  std::vector<Event> events;
  events.reserve(scopes.size() * 2);
  std::vector<const Record*> stack;
  auto close = [&](const Record& record) {
    events.push_back(Event{record.name, 'E', record.end_ns, tid, 0.0});
  };
  for (const Record& scope : scopes) {
    while (!stack.empty() &&
           (stack.back()->end_ns < scope.start_ns ||
            (stack.back()->end_ns == scope.start_ns &&
             stack.back()->depth >= scope.depth))) {
      close(*stack.back());
      stack.pop_back();
    }
    events.push_back(Event{scope.name, 'B', scope.start_ns, tid, 0.0});
    stack.push_back(&scope);
  }
  while (!stack.empty()) {
    close(*stack.back());
    stack.pop_back();
  }
  return events;
}

// Stable two-way merge by timestamp; scope events win ties so a counter
// stamped inside a scope lands between its B and E.
std::vector<Event> MergeByTs(const std::vector<Event>& scopes,
                             const std::vector<Event>& points) {
  std::vector<Event> merged;
  merged.reserve(scopes.size() + points.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < scopes.size() || j < points.size()) {
    if (j >= points.size() ||
        (i < scopes.size() && scopes[i].ts_ns <= points[j].ts_ns)) {
      merged.push_back(scopes[i++]);
    } else {
      merged.push_back(points[j++]);
    }
  }
  return merged;
}

}  // namespace

void StartTracing(const TraceOptions& options) {
  BufferRegistry& registry = Buffers();
  {
    MutexLock lock(registry.mutex);
    registry.ring_capacity = options.ring_capacity;
    for (const std::shared_ptr<ThreadBuffer>& buffer : registry.buffers) {
      MutexLock buffer_lock(buffer->mutex);
      buffer->ring.assign(options.ring_capacity, Record{});
      buffer->head = 0;
      buffer->size = 0;
      buffer->dropped = 0;
    }
    registry.epoch_ns = MonotonicNowNs();
  }
  internal::SetModeBit(kTracing, true);
}

void StopTracing() { internal::SetModeBit(kTracing, false); }

std::uint64_t DroppedTraceEvents() {
  BufferRegistry& registry = Buffers();
  MutexLock lock(registry.mutex);
  std::uint64_t dropped = 0;
  for (const std::shared_ptr<ThreadBuffer>& buffer : registry.buffers) {
    MutexLock buffer_lock(buffer->mutex);
    dropped += buffer->dropped;
  }
  return dropped;
}

std::string TraceToJson() {
  BufferRegistry& registry = Buffers();
  struct Snapshot {
    std::uint32_t tid = 0;
    std::vector<Record> records;  // oldest first
  };
  std::vector<Snapshot> snapshots;
  std::int64_t epoch_ns = 0;
  {
    MutexLock lock(registry.mutex);
    epoch_ns = registry.epoch_ns;
    snapshots.reserve(registry.buffers.size());
    for (const std::shared_ptr<ThreadBuffer>& buffer : registry.buffers) {
      MutexLock buffer_lock(buffer->mutex);
      Snapshot snapshot;
      snapshot.tid = buffer->tid;
      snapshot.records.reserve(buffer->size);
      const std::size_t capacity = buffer->ring.size();
      if (capacity > 0) {
        const std::size_t oldest =
            (buffer->head + capacity - buffer->size) % capacity;
        for (std::size_t k = 0; k < buffer->size; ++k) {
          snapshot.records.push_back(buffer->ring[(oldest + k) % capacity]);
        }
      }
      snapshots.push_back(std::move(snapshot));
    }
  }

  // Per-thread: expand scopes to balanced B/E pairs, merge in point events.
  std::vector<std::vector<Event>> streams;
  streams.reserve(snapshots.size());
  for (Snapshot& snapshot : snapshots) {
    std::vector<Record> scopes;
    std::vector<Event> points;
    for (const Record& record : snapshot.records) {
      if (record.kind == Kind::kScope) {
        scopes.push_back(record);
      } else {
        points.push_back(Event{record.name,
                               record.kind == Kind::kInstant ? 'i' : 'C',
                               record.start_ns, snapshot.tid, record.value});
      }
    }
    std::stable_sort(points.begin(), points.end(),
                     [](const Event& a, const Event& b) {
                       return a.ts_ns < b.ts_ns;
                     });
    streams.push_back(MergeByTs(ExpandScopes(scopes, snapshot.tid), points));
  }

  // Global k-way merge by (ts, tid) so the whole file is timestamp-sorted.
  std::string out;
  out += "{\n\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&](auto&& append) {
    if (!first) out += ",\n";
    first = false;
    append();
  };
  emit([&] { AppendMetadata(out, "process_name", 0, "aladdin", true); });
  for (const std::vector<Event>& stream : streams) {
    if (stream.empty()) continue;
    const std::uint32_t tid = stream.front().tid;
    emit([&] {
      AppendMetadata(out, "thread_name", tid,
                     "thread-" + std::to_string(tid), false);
    });
  }
  std::vector<std::size_t> cursor(streams.size(), 0);
  for (;;) {
    std::size_t best = streams.size();
    for (std::size_t s = 0; s < streams.size(); ++s) {
      if (cursor[s] >= streams[s].size()) continue;
      if (best == streams.size() ||
          streams[s][cursor[s]].ts_ns < streams[best][cursor[best]].ts_ns) {
        best = s;
      }
    }
    if (best == streams.size()) break;
    emit([&] { AppendEvent(out, streams[best][cursor[best]], epoch_ns); });
    ++cursor[best];
  }
  out += "\n],\n\"displayTimeUnit\":\"ms\"\n}\n";
  return out;
}

bool WriteTrace(const std::string& path) {
  std::ofstream file(path, std::ios::out | std::ios::trunc);
  if (!file) {
    LOG_ERROR << "cannot open trace file " << path;
    return false;
  }
  file << TraceToJson();
  file.flush();
  if (!file) {
    LOG_ERROR << "failed writing trace file " << path;
    return false;
  }
  return true;
}

namespace internal {

void EnterScope() { ++g_scope_depth; }

void ExitScope(const Phase& phase, std::int64_t start_ns,
               std::int64_t end_ns) {
  --g_scope_depth;
  Record record;
  record.name = phase.name().c_str();
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  record.depth = g_scope_depth;
  record.kind = Kind::kScope;
  ThisThreadBuffer().Append(record);
}

void RecordInstant(const char* name) {
  Record record;
  record.name = name;
  record.start_ns = MonotonicNowNs();
  record.end_ns = record.start_ns;
  record.kind = Kind::kInstant;
  ThisThreadBuffer().Append(record);
}

void RecordCounter(const char* name, double value) {
  Record record;
  record.name = name;
  record.start_ns = MonotonicNowNs();
  record.end_ns = record.start_ns;
  record.kind = Kind::kCounter;
  record.value = value;
  ThisThreadBuffer().Append(record);
}

}  // namespace internal

}  // namespace aladdin::obs
