#include "cluster/free_index.h"

#include "common/check.h"

namespace aladdin::cluster {

void FreeIndex::Attach(const ClusterState& state) {
  state_ = &state;
  const auto& machines = state.topology().machines();

  std::int64_t max_capacity = 0;
  for (const Machine& m : machines) {
    max_capacity = std::max(max_capacity, m.capacity.cpu_millis());
  }
  // Width such that the largest possible free value maps inside the table.
  bucket_width_ = std::max<std::int64_t>(
      1, max_capacity / static_cast<std::int64_t>(kBuckets) + 1);

  // Clear rather than reassign, so every bucket keeps its capacity: the
  // resolver rebuilds the index once per task phase.
  // analyze:allow(A103) sized once; later rebuilds reuse the capacity
  buckets_.resize(kBuckets);
  for (Bucket& bucket : buckets_) {
    bucket.keys.clear();
    bucket.head = 0;
  }
  indexed_free_.assign(machines.size(), 0);  // analyze:allow(A103) as above
  for (const Machine& m : machines) {
    const std::int64_t free = state.Free(m.id).cpu_millis();
    indexed_free_[static_cast<std::size_t>(m.id.value())] = free;
    buckets_[BucketOf(free)].keys.push_back({free, m.id.value()});
  }
  for (Bucket& bucket : buckets_) {
    std::sort(bucket.keys.begin(), bucket.keys.end());
  }
}

void FreeIndex::OnChanged(MachineId m) {
  ALADDIN_CHECK(state_ != nullptr);
  const auto mi = static_cast<std::size_t>(m.value());
  const std::int64_t old_free = indexed_free_[mi];
  const std::int64_t now = state_->Free(m).cpu_millis();
  if (now == old_free) return;

  Bucket& from = buckets_[BucketOf(old_free)];
  const auto it =
      std::lower_bound(from.begin(), from.end(), Key{old_free, m.value()});
  ALADDIN_DCHECK(it != from.end() && *it == (Key{old_free, m.value()}));
  from.Erase(it);

  buckets_[BucketOf(now)].Insert({now, m.value()});
  indexed_free_[mi] = now;
}

}  // namespace aladdin::cluster
