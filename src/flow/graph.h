// Directed flow network with residual arcs.
//
// Storage follows the classic paired-arc layout: arc 2k is a forward arc and
// arc 2k+1 is its residual twin, so the reverse of arc a is a ^ 1. Adjacency
// is a frozen CSR (compressed sparse row) view derived from the arc array:
// one flat `offsets[]` array (V+1 entries) and one flat `arc_ids[]` array (A
// entries), grouped by tail in ascending arc-id order — exactly the order the
// old per-vertex vectors produced, so solver iteration order (and therefore
// every placement decision) is bit-identical to the nested-vector layout.
//
// Mutations (AddArc / AddVertex) only touch the arc array and mark the CSR
// dirty; the CSR is (re)built lazily on the next adjacency read, so a batch
// of topology changes between reads costs one O(V + A) re-freeze, not one per
// arc. All capacities, flows and costs are 64-bit integers — the scheduling
// layers express resources in exact milli-units, so the flow substrate never
// touches floating point.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/ids.h"

namespace aladdin::flow {

using Capacity = std::int64_t;
using Cost = std::int64_t;

inline constexpr Capacity kInfiniteCapacity =
    std::int64_t{1} << 60;  // effectively unbounded, no overflow when summed

struct Arc {
  VertexId head;       // arc points at this vertex
  Capacity capacity;   // upper bound (residual twin starts at 0)
  Capacity flow;       // current flow; residual = capacity - flow
  Cost cost;           // per-unit cost (twin carries -cost)
};

class Graph {
 public:
  // Index-domain limits. Arc ids and vertex ids are int32_t everywhere (CSR
  // entries, ShortestPathTree::parent_arc, ArcId/VertexId); the arc slot
  // count is additionally kept even (arcs always come in forward/twin pairs)
  // and one below INT32_MAX so CSR offsets fit int32_t too.
  static constexpr std::size_t kMaxVertices =
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max());
  static constexpr std::size_t kMaxArcSlots =
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()) - 1;

  Graph() = default;
  explicit Graph(std::size_t vertex_hint) {
    csr_offsets_.reserve(vertex_hint + 1);
  }

  VertexId AddVertex();
  // Bulk variant; returns the id of the first vertex added.
  VertexId AddVertices(std::size_t n);

  // Adds forward arc tail->head plus a zero-capacity residual twin.
  // Returns the forward arc's id; its twin is Reverse(id).
  ArcId AddArc(VertexId tail, VertexId head, Capacity capacity, Cost cost = 0);

  [[nodiscard]] static ArcId Reverse(ArcId a) {
    return ArcId(a.value() ^ 1);
  }

  [[nodiscard]] std::size_t vertex_count() const { return vertex_count_; }
  [[nodiscard]] std::size_t arc_count() const { return arcs_.size(); }

  [[nodiscard]] const Arc& arc(ArcId a) const { return arcs_[Index(a)]; }
  [[nodiscard]] VertexId Tail(ArcId a) const { return arcs_[Index(Reverse(a))].head; }

  [[nodiscard]] Capacity Residual(ArcId a) const {
    const Arc& x = arcs_[Index(a)];
    return x.capacity - x.flow;
  }

  // Pushes `amount` along arc a (and -amount along its twin).
  // Requires 0 <= amount <= Residual(a).
  void Push(ArcId a, Capacity amount);

  // Arc ids leaving vertex v (forward and residual twins both appear in the
  // adjacency of their respective tails), in ascending arc-id order. Lazily
  // re-freezes the CSR if topology changed since the last read; call
  // Freeze() first when sharing a graph read-only across threads.
  [[nodiscard]] std::span<const std::int32_t> OutArcs(VertexId v) const {
    if (csr_dirty_) RebuildCsr();
    const auto i = static_cast<std::size_t>(v.value());
    const auto begin = static_cast<std::size_t>(csr_offsets_[i]);
    const auto end = static_cast<std::size_t>(csr_offsets_[i + 1]);
    return {csr_arcs_.data() + begin, end - begin};
  }

  // Builds the CSR adjacency now (idempotent when already clean). Reads on a
  // frozen graph are safe from multiple threads; a read on a dirty graph
  // re-freezes and is not.
  void Freeze() const {
    if (csr_dirty_) RebuildCsr();
  }

  [[nodiscard]] bool frozen() const { return !csr_dirty_; }

  [[nodiscard]] Capacity Flow(ArcId a) const { return arcs_[Index(a)].flow; }

  // Zero all flows, keeping topology and capacities.
  void ResetFlows();

  // Total flow out of v minus flow into v (positive at a source).
  [[nodiscard]] Capacity NetOutflow(VertexId v) const;

  // Deep structural validation: residual-arc pairing (even/odd twins with
  // zero-capacity reverse, negated flow and cost), 0 <= flow <= capacity on
  // every forward arc, a CSR adjacency that agrees with arc tails (each arc
  // listed exactly once, under its tail, offsets monotone), and flow
  // conservation at every vertex not listed in `exempt` (sources/sinks).
  // Returns true when every invariant holds; otherwise false with a
  // description of the first violation in *error (if non-null). O(V + E).
  [[nodiscard]] bool ValidateInvariants(std::span<const VertexId> exempt = {},
                                        std::string* error = nullptr) const;

 private:
  friend struct GraphTestPeer;  // tests corrupt arcs/CSR to exercise validation
  static std::size_t Index(ArcId a) {
    return static_cast<std::size_t>(a.value());
  }
  // The arc-slot overflow check, split out so the boundary is unit-testable
  // without materialising 2^31 arcs (GraphTestPeer calls it directly).
  static void CheckCanAddArcPair(std::size_t current_arc_slots);

  // Rebuild the CSR arrays from arcs_ (counting sort by tail, ascending
  // arc-id within each tail — an arc's tail is its twin's head, so the arc
  // array alone fully determines the adjacency).
  void RebuildCsr() const;

  std::vector<Arc> arcs_;
  std::size_t vertex_count_ = 0;
  // CSR adjacency, derived from arcs_. `mutable` because the rebuild is a
  // cache fill triggered from const reads.
  mutable std::vector<std::int32_t> csr_offsets_;  // V+1 entries
  mutable std::vector<std::int32_t> csr_arcs_;     // A entries
  mutable bool csr_dirty_ = true;
};

}  // namespace aladdin::flow
