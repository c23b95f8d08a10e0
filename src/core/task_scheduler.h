// The "traditional task-based scheduler" for short-lived containers
// (§IV.D: "Aladdin also uses a traditional task-based scheduler for
// short-lived containers").
//
// Short-lived batch tasks have no LLA constraints and live for minutes, so
// they skip the flow machinery entirely: a single pass in queue order,
// placing each task on the tightest machine that fits its raw resources
// (best fit). The k8s resolver interleaves it with LLA scheduling, one run
// of identical requests at a time.
#pragma once

#include <cstddef>
#include <span>

#include "cluster/free_index.h"

namespace aladdin::core {

// Best-fit run placer: places a run of tasks with identical
// resource requests, bit-identically to a per-task best-fit scan (the
// tightest machine that fits, FreeIndex::ScanAscending) but without the
// per-task rescan. The current winner absorbs tasks while the request keeps
// fitting (deferring its index re-key); when it stops fitting the scan
// resumes strictly after the winner's discovery key
// (FreeIndex::ScanAscendingFrom) — every earlier key is a machine that
// already rejected this request shape and is unchanged, or an exhausted
// ex-winner re-keyed below its discovery position. Once a resumed scan
// comes up empty, all remaining tasks are unplaced (state unchanged, so a
// serial rescan would fail identically). out[i] receives the machine for
// tasks[i] (Invalid when unplaced); failures form a suffix. Returns the
// number placed. Requires tasks.size() == out.size() and all tasks unplaced
// with equal request vectors.
std::size_t PlaceTaskRun(cluster::ClusterState& state,
                         cluster::FreeIndex& index,
                         std::span<const cluster::ContainerId> tasks,
                         std::span<cluster::MachineId> out);

}  // namespace aladdin::core
