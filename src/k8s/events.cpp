#include "k8s/events.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "obs/metrics.h"

namespace aladdin::k8s {

namespace {

// Sorts one object kind's (key, queue index) pairs and flags the event of
// each object that survives the drain: none if the object has both an add
// (`add`) and a delete among its events, otherwise its first.
template <typename Key>
void MarkSurvivors(std::vector<std::pair<Key, std::uint32_t>>& keys,
                   const std::vector<Event>& queue, EventType add,
                   std::vector<char>& keep) {
  std::sort(keys.begin(), keys.end());
  std::size_t lo = 0;
  while (lo < keys.size()) {
    bool added = false;
    bool deleted = false;
    std::size_t hi = lo;
    for (; hi < keys.size() && keys[hi].first == keys[lo].first; ++hi) {
      (queue[keys[hi].second].type == add ? added : deleted) = true;
    }
    if (!(added && deleted)) keep[keys[lo].second] = 1;
    lo = hi;
  }
}

}  // namespace

void EventsHandlingCenter::Subscribe(Handler handler) {
  handlers_.push_back(std::move(handler));
}

void EventsHandlingCenter::Submit(Event event) {
  queue_.push_back(std::move(event));
}

std::size_t EventsHandlingCenter::DrainAndDispatch() {
  // Coalescing pass: a pod both added and deleted inside this drain never
  // existed as far as the scheduler is concerned; same for nodes. Any other
  // object keeps its first event. Sorting (key, index) pairs groups each
  // object's events without a hash container per drain.
  ALADDIN_CHECK(queue_.size() <= std::numeric_limits<std::uint32_t>::max())
      << "event queue too long to index: " << queue_.size();
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Event& e = queue_[i];
    const auto index = static_cast<std::uint32_t>(i);
    switch (e.type) {
      case EventType::kPodAdded:
      case EventType::kPodDeleted:
        pod_keys_.emplace_back(e.pod.uid, index);
        break;
      case EventType::kNodeAdded:
      case EventType::kNodeRemoved:
        node_keys_.emplace_back(e.node.name, index);
        break;
    }
  }
  // analyze:allow(A103) drain scratch grows to its high-water mark
  keep_.assign(queue_.size(), 0);
  MarkSurvivors(pod_keys_, queue_, EventType::kPodAdded, keep_);
  MarkSurvivors(node_keys_, queue_, EventType::kNodeAdded, keep_);

  std::size_t dispatched = 0;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (keep_[i] == 0) {
      ++coalesced_total_;
      continue;
    }
    for (const Handler& handler : handlers_) handler(queue_[i]);
    ++dispatched;
  }
  dispatched_total_ += static_cast<std::int64_t>(dispatched);
  ALADDIN_METRIC_ADD("k8s/events_dispatched", dispatched);
  ALADDIN_METRIC_ADD("k8s/events_coalesced",
                     queue_.size() - dispatched);
  queue_.clear();
  // The node keys view names in the cleared queue.
  pod_keys_.clear();
  node_keys_.clear();
  return dispatched;
}

}  // namespace aladdin::k8s
