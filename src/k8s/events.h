// Events Handling Center (EHC) — §IV.C, Fig. 6: "EHC receives all kinds of
// changes in the LLAs' life-cycles and resources. Then, it forwards
// pre-processed events to [the model adaptor]".
//
// Pre-processing here means coalescing, per object (a pod uid or a node
// name) within one drain: if the drain holds both an add and a delete of
// the object, none of its events is dispatched; otherwise only its first
// event is. Survivors are dispatched in queue order. Subscribers see a
// clean, minimal stream.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

#include "k8s/objects.h"

namespace aladdin::k8s {

enum class EventType {  // analyze:closed_enum
  kPodAdded,
  kPodDeleted,     // user/controller deletion or completion
  kNodeAdded,
  kNodeRemoved,
};

struct Event {
  EventType type;
  // One of the two payloads is meaningful depending on the type.
  Pod pod;
  Node node;
};

class EventsHandlingCenter {
 public:
  using Handler = std::function<void(const Event&)>;

  // Subscribers are invoked in registration order on every dispatched
  // event (the model adaptor is the primary subscriber).
  void Subscribe(Handler handler);

  // Queue an event; no dispatch happens until DrainAndDispatch.
  void Submit(Event event);

  // Coalesce the queue, dispatch surviving events to subscribers, and
  // return how many were dispatched. Handlers must not Submit.
  std::size_t DrainAndDispatch();

  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::int64_t dispatched_total() const {
    return dispatched_total_;
  }
  [[nodiscard]] std::int64_t coalesced_total() const {
    return coalesced_total_;
  }

 private:
  std::vector<Event> queue_;
  std::vector<Handler> handlers_;
  // Drain scratch, kept for its capacity: (object key, queue index) pairs,
  // sorted so that each object's events sit together, and a keep flag per
  // queued event. The key vectors are emptied after each drain.
  std::vector<std::pair<PodUid, std::uint32_t>> pod_keys_;
  std::vector<std::pair<std::string_view, std::uint32_t>> node_keys_;
  std::vector<char> keep_;
  std::int64_t dispatched_total_ = 0;
  std::int64_t coalesced_total_ = 0;
};

}  // namespace aladdin::k8s
