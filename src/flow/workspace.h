// Reusable solver scratch memory.
//
// Every max-flow / shortest-path invocation used to allocate fresh level /
// parent / distance / queue buffers; at 10k machines that is megabytes of
// malloc traffic per tick. A Workspace owns all of those buffers long-term
// and hands them back to the solvers, so a steady-state solve performs zero
// heap allocations:
//
//  * Per-vertex arrays are *epoch-stamped* (StampedArray): instead of an
//    O(V) std::fill per run, a run bumps a 32-bit epoch and an entry is "at
//    its default" unless its stamp matches the current epoch. Resetting is
//    O(1); reads pay one extra comparison.
//  * The BFS/SPFA work-list is a fixed ring buffer (RingQueue) sized V —
//    both solvers mark vertices before enqueueing, so occupancy never
//    exceeds V and the ring never grows mid-run.
//  * Growth is deterministic (exact doubling to the needed size, never the
//    implementation-defined std::vector factor), so the `flow/ws_grow` /
//    `flow/ws_reuse` counters are bit-identical across runs and across
//    serial vs parallel execution.
//
// Threading: a Workspace is single-threaded state. Solvers take one
// explicitly, or default to ThreadLocalWorkspace() — one instance per
// thread, which is what keeps solves on concurrent threads (the experiment
// runner's parallel jobs) allocation-free and race-free at the same time.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "flow/graph.h"

namespace aladdin::flow {

// Epoch-stamped array. `Get(i)` observes `def` unless `Ref(i)`/`Set` stamped
// slot i in the current epoch; `NextEpoch()` resets every slot in O(1).
template <typename T>
class StampedArray {
 public:
  // Ensures capacity for n slots. Deterministic growth: exact doubling up to
  // the needed size. Returns true when an actual grow happened.
  bool Grow(std::size_t n) {
    if (n <= value_.size()) return false;
    std::size_t target = value_.empty() ? 1 : value_.size();
    while (target < n) target *= 2;
    value_.resize(target);
    stamp_.resize(target, 0);
    return true;
  }

  void NextEpoch() {
    if (++epoch_ == 0) {  // u32 wraparound (once per 4B runs): hard reset
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  [[nodiscard]] bool Stamped(std::size_t i) const {
    return stamp_[i] == epoch_;
  }

  [[nodiscard]] T Get(std::size_t i, T def) const {
    return Stamped(i) ? value_[i] : def;
  }

  // Stamps slot i (initialising it to `def` if it was stale) and returns a
  // reference valid until the next Grow.
  [[nodiscard]] T& Ref(std::size_t i, T def) {
    if (stamp_[i] != epoch_) {
      stamp_[i] = epoch_;
      value_[i] = def;
    }
    return value_[i];
  }

  void Set(std::size_t i, T v) {
    stamp_[i] = epoch_;
    value_[i] = v;
  }

 private:
  std::vector<T> value_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 1;  // stamps start at 0 == "never touched"
};

// Fixed-capacity circular work-list of vertex ids. Capacity must cover peak
// occupancy (V for the marking BFS/SPFA solvers); overflow is a DCHECK.
class RingQueue {
 public:
  // Ensures capacity for n queued vertices and empties the queue. Returns
  // true when the backing buffer actually grew.
  bool Reset(std::size_t n) {
    head_ = tail_ = size_ = 0;
    if (n + 1 <= buf_.size()) return false;
    std::size_t target = buf_.empty() ? 2 : buf_.size();
    while (target < n + 1) target *= 2;
    buf_.resize(target);
    return true;
  }

  // Empties the queue without touching capacity (per-phase reset).
  void Clear() { head_ = tail_ = size_ = 0; }

  [[nodiscard]] bool empty() const { return size_ == 0; }

  void PushBack(std::int32_t v) {
    ALADDIN_DCHECK(size_ + 1 < buf_.size()) << "RingQueue overflow";
    buf_[tail_] = v;
    tail_ = Next(tail_);
    ++size_;
  }

  // SLF heuristic support: promising vertices jump the queue.
  void PushFront(std::int32_t v) {
    ALADDIN_DCHECK(size_ + 1 < buf_.size()) << "RingQueue overflow";
    head_ = Prev(head_);
    buf_[head_] = v;
    ++size_;
  }

  [[nodiscard]] std::int32_t Front() const {
    ALADDIN_DCHECK(size_ > 0);
    return buf_[head_];
  }

  std::int32_t PopFront() {
    ALADDIN_DCHECK(size_ > 0);
    const std::int32_t v = buf_[head_];
    head_ = Next(head_);
    --size_;
    return v;
  }

 private:
  [[nodiscard]] std::size_t Next(std::size_t i) const {
    return i + 1 == buf_.size() ? 0 : i + 1;
  }
  [[nodiscard]] std::size_t Prev(std::size_t i) const {
    return (i == 0 ? buf_.size() : i) - 1;
  }
  std::vector<std::int32_t> buf_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::size_t size_ = 0;
};

// All the scratch a flow solver needs, reusable across runs. Members are
// public: this is an internal performance substrate shared by the solvers in
// this directory, not an abstraction boundary.
class Workspace {
 public:
  // Prepares for one solver run over `graph`: bumps every epoch, empties the
  // work-list, grows buffers if the graph outgrew them. Bumps flow/ws_grow
  // when any buffer grew, flow/ws_reuse otherwise — after warmup ws_grow
  // must stay flat (that is the zero-allocation steady-state witness).
  void BeginRun(const Graph& graph);

  // Per-phase O(1) reset for Dinic's level/iterator arrays (a run contains
  // many phases; dist/parent/visited keep their run-scoped epoch).
  void NextPhase() {
    level.NextEpoch();
    next_arc.NextEpoch();
  }

  StampedArray<Cost> dist;              // SPFA / Bellman-Ford
  StampedArray<std::int32_t> parent;    // parent arc ids (-1 default)
  StampedArray<std::int32_t> level;     // Dinic level graph (-1 default)
  StampedArray<std::int32_t> next_arc;  // Dinic current-arc iterator
  StampedArray<std::uint8_t> visited;   // reachability / in-queue marks
  StampedArray<std::int64_t> dequeued;  // SPFA negative-cycle trip wire
  RingQueue queue;                      // BFS / SPFA work-list

  // Reusable dynamic buffers. Cleared (capacity kept) by their users;
  // steady-state growth is bounded by the graph, so after warmup these never
  // reallocate either.
  std::vector<ArcId> path;  // ExtractPathInto output
};

// One lazily-constructed Workspace per thread — the default scratch for
// every solver overload that is not handed one explicitly.
Workspace& ThreadLocalWorkspace();

}  // namespace aladdin::flow
