// Sorted index of machines by free CPU, shared by the baseline schedulers
// (best-fit scans for Medea, worst-fit scans for Go-Kube, candidate
// generation for Firmament) and the short-lived task run placer
// (core::PlaceTaskRun). The Aladdin core keeps its own richer index
// (core/network.h) with rack/sub-cluster aggregates.
//
// The index mirrors a ClusterState it is attached to; callers must invoke
// OnChanged(m) after any deploy/evict that touches machine m. It does not
// read the state's touch log: a caller whose state changed behind its back
// re-attaches. The k8s resolver rebuilds it once per task phase, because
// sorting every machine into fresh (capacity-retaining) buckets costs less
// than re-keying a tick's worth of touched machines.
//
// Representation: machines live in fixed-width buckets of free-CPU range,
// each bucket a sorted vector of (free, machine id). Global iteration order
// — ascending (free, id), exactly what a std::set<pair> would produce — is
// preserved, so scan results are bit-identical to the previous tree-based
// index. The flat layout exists for the hot path: the task scheduler runs
// one scan plus one re-key per placed task, and red-black-tree node hops
// (one potential cache miss each) dominated both. A bucket re-key is two
// short binary searches plus a small memmove inside contiguous storage.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/state.h"

namespace aladdin::cluster {

class FreeIndex {
 public:
  void Attach(const ClusterState& state);

  // Re-key machine m after its free resources changed.
  void OnChanged(MachineId m);

  // Visit machines with free CPU >= min_free_cpu in ascending free order
  // (best-fit first) until fn returns true. Returns whether fn accepted one.
  // Templated on the callable: the task scheduler runs thousands of these
  // scans per tick, and a std::function would heap-allocate its capture
  // block per scan and force an indirect call per visited machine.
  template <typename Fn>
  bool ScanAscending(std::int64_t min_free_cpu, Fn&& fn) const {
    const std::size_t first = BucketOf(min_free_cpu);
    for (std::size_t b = first; b < buckets_.size(); ++b) {
      const Bucket& bucket = buckets_[b];
      auto it = bucket.begin();
      if (b == first) {
        it = std::lower_bound(bucket.begin(), bucket.end(),
                              Key{min_free_cpu, -1});
      }
      for (; it != bucket.end(); ++it) {
        if (fn(MachineId(it->second))) return true;
      }
    }
    return false;
  }

  // Resume a best-fit scan strictly after the key (free_cpu, machine):
  // same ascending (free, id) order as ScanAscending, but every key <= the
  // given one is skipped. The task run placer (core::PlaceTaskRun)
  // resumes where the previous winner was discovered — the
  // skipped prefix is exactly the machines that already rejected this
  // request shape and have not changed since, plus exhausted ex-winners
  // re-keyed to smaller keys.
  template <typename Fn>
  bool ScanAscendingFrom(std::int64_t free_cpu, std::int32_t machine,
                         Fn&& fn) const {
    const std::size_t first = BucketOf(free_cpu);
    for (std::size_t b = first; b < buckets_.size(); ++b) {
      const Bucket& bucket = buckets_[b];
      auto it = bucket.begin();
      if (b == first) {
        it = std::lower_bound(bucket.begin(), bucket.end(),
                              Key{free_cpu, machine + 1});
      }
      for (; it != bucket.end(); ++it) {
        if (fn(MachineId(it->second))) return true;
      }
    }
    return false;
  }

  // Visit machines in descending free order (emptiest first).
  template <typename Fn>
  bool ScanDescending(Fn&& fn) const {
    for (auto b = buckets_.rbegin(); b != buckets_.rend(); ++b) {
      for (auto it = std::make_reverse_iterator(b->end());
           it != std::make_reverse_iterator(b->begin()); ++it) {
        if (fn(MachineId(it->second))) return true;
      }
    }
    return false;
  }

 private:
  using Key = std::pair<std::int64_t, std::int32_t>;

  // Sorted vector with a dead prefix. Best-fit drains a run of equal-free
  // machines (e.g. the all-idle bucket right after Attach) strictly from
  // the front — lowest id first — and a plain vector::erase there memmoves
  // the whole bucket per placement. The head offset turns exactly that
  // pattern into O(1); the dead prefix is compacted away once it outgrows
  // the live part.
  struct Bucket {
    std::vector<Key> keys;
    std::size_t head = 0;

    [[nodiscard]] auto begin() const { return keys.begin() + head; }
    [[nodiscard]] auto end() const { return keys.end(); }

    void Erase(std::vector<Key>::const_iterator it) {
      if (it == begin()) {
        if (++head == keys.size()) {
          keys.clear();
          head = 0;
        } else if (head > 64 && head > keys.size() / 2) {
          keys.erase(keys.begin(),
                     keys.begin() + static_cast<std::ptrdiff_t>(head));
          head = 0;
        }
      } else {
        keys.erase(it);
      }
    }

    void Insert(const Key& key) {
      keys.insert(std::upper_bound(begin(), keys.cend(), key), key);
    }
  };

  // Bucket count trades re-key memmove size (entries per bucket) against
  // empty-bucket skips during scans; 1024 keeps both in cache-line noise
  // at the 10k-machine scale.
  static constexpr std::size_t kBuckets = 1024;

  [[nodiscard]] std::size_t BucketOf(std::int64_t free_cpu) const {
    if (free_cpu <= 0) return 0;
    const auto b = static_cast<std::size_t>(free_cpu / bucket_width_);
    return b < buckets_.size() ? b : buckets_.size() - 1;
  }

  const ClusterState* state_ = nullptr;
  std::int64_t bucket_width_ = 1;
  std::vector<Bucket> buckets_;
  std::vector<std::int64_t> indexed_free_;
};

}  // namespace aladdin::cluster
