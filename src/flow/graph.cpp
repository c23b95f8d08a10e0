#include "flow/graph.h"

#include <sstream>

#include "common/check.h"
#include "obs/metrics.h"

namespace aladdin::flow {

VertexId Graph::AddVertex() {
  ALADDIN_CHECK(vertex_count_ < kMaxVertices)
      << "Graph: vertex count would exceed the int32 id domain ("
      << kMaxVertices << ")";
  csr_dirty_ = true;
  return VertexId(static_cast<std::int32_t>(vertex_count_++));
}

VertexId Graph::AddVertices(std::size_t n) {
  ALADDIN_CHECK(n <= kMaxVertices - vertex_count_)
      << "Graph: adding " << n << " vertices to " << vertex_count_
      << " would exceed the int32 id domain (" << kMaxVertices << ")";
  const VertexId first(static_cast<std::int32_t>(vertex_count_));
  vertex_count_ += n;
  if (n > 0) csr_dirty_ = true;
  return first;
}

void Graph::CheckCanAddArcPair(std::size_t current_arc_slots) {
  // Each AddArc appends two slots (forward + residual twin); every slot id
  // must fit the int32 CSR entries and ShortestPathTree::parent_arc. This is
  // the boundary that used to overflow silently when adjacency stored the
  // truncated int32 of a wider arc index.
  ALADDIN_CHECK(current_arc_slots + 2 <= kMaxArcSlots)
      << "Graph: arc slot count " << current_arc_slots
      << " is at the int32 id domain limit (" << kMaxArcSlots
      << "); cannot add another arc pair";
}

ArcId Graph::AddArc(VertexId tail, VertexId head, Capacity capacity,
                    Cost cost) {
  ALADDIN_DCHECK(tail.valid() &&
                 static_cast<std::size_t>(tail.value()) < vertex_count_)
      << "AddArc: bad tail " << tail;
  ALADDIN_DCHECK(head.valid() &&
                 static_cast<std::size_t>(head.value()) < vertex_count_)
      << "AddArc: bad head " << head;
  ALADDIN_DCHECK(capacity >= 0) << "AddArc: negative capacity " << capacity;
  CheckCanAddArcPair(arcs_.size());
  const auto forward_index = static_cast<std::int32_t>(arcs_.size());
  arcs_.push_back(Arc{head, capacity, 0, cost});
  arcs_.push_back(Arc{tail, 0, 0, -cost});
  csr_dirty_ = true;
  return ArcId(forward_index);
}

void Graph::RebuildCsr() const {
  ALADDIN_METRIC_ADD("flow/csr_refreeze", 1);
  // Counting sort by tail. Pass 1: out-degrees into offsets[tail + 1].
  // analyze:allow(A103) amortised re-freeze: capacity tracks the arc high-water mark
  csr_offsets_.assign(vertex_count_ + 1, 0);
  for (std::size_t a = 0; a < arcs_.size(); ++a) {
    const auto tail = static_cast<std::size_t>(arcs_[a ^ 1].head.value());
    ++csr_offsets_[tail + 1];
  }
  // Pass 2: prefix sums -> start offsets.
  for (std::size_t v = 0; v < vertex_count_; ++v) {
    csr_offsets_[v + 1] += csr_offsets_[v];
  }
  // Pass 3: place arcs in ascending id order, bumping offsets[tail] as the
  // write cursor. Ascending id within each tail reproduces the legacy
  // nested-vector insertion order exactly (AddArc appended ids in order).
  csr_arcs_.resize(arcs_.size());  // analyze:allow(A103) amortised re-freeze, as above
  for (std::size_t a = 0; a < arcs_.size(); ++a) {
    const auto tail = static_cast<std::size_t>(arcs_[a ^ 1].head.value());
    csr_arcs_[static_cast<std::size_t>(csr_offsets_[tail]++)] =
        static_cast<std::int32_t>(a);
  }
  // Pass 4: undo the cursor bumps — offsets[v] now holds end(v) == start(v+1),
  // so shift everything one vertex right and restore offsets[0] = 0.
  for (std::size_t v = vertex_count_; v > 0; --v) {
    csr_offsets_[v] = csr_offsets_[v - 1];
  }
  if (!csr_offsets_.empty()) csr_offsets_[0] = 0;
  csr_dirty_ = false;
}

void Graph::Push(ArcId a, Capacity amount) {
  ALADDIN_DCHECK(amount >= 0) << "Push: negative amount " << amount;
  ALADDIN_DCHECK(amount <= Residual(a))
      << "Push: amount " << amount << " exceeds residual " << Residual(a)
      << " on arc " << a;
  arcs_[Index(a)].flow += amount;
  arcs_[Index(Reverse(a))].flow -= amount;
}

void Graph::ResetFlows() {
  for (Arc& a : arcs_) a.flow = 0;
}

Capacity Graph::NetOutflow(VertexId v) const {
  Capacity net = 0;
  for (std::int32_t raw : OutArcs(v)) {
    const Arc& a = arcs_[static_cast<std::size_t>(raw)];
    // Forward arcs (even index) carry positive flow out of v; residual twins
    // carry the negation of their forward arc's flow.
    net += a.flow;
  }
  return net;
}

namespace {

bool Fail(std::string* error, const std::ostringstream& os) {
  if (error != nullptr) *error = os.str();
  return false;
}

}  // namespace

bool Graph::ValidateInvariants(std::span<const VertexId> exempt,
                               std::string* error) const {
  if (arcs_.size() % 2 != 0) {
    std::ostringstream os;
    os << "odd arc count " << arcs_.size() << " (twin pairing broken)";
    return Fail(error, os);
  }
  const auto vertices = vertex_count();
  for (std::size_t i = 0; i < arcs_.size(); i += 2) {
    const Arc& fwd = arcs_[i];
    const Arc& rev = arcs_[i + 1];
    if (!fwd.head.valid() ||
        static_cast<std::size_t>(fwd.head.value()) >= vertices ||
        !rev.head.valid() ||
        static_cast<std::size_t>(rev.head.value()) >= vertices) {
      std::ostringstream os;
      os << "arc pair " << i << ": endpoint out of range (head=" << fwd.head
         << ", tail=" << rev.head << ", vertices=" << vertices << ")";
      return Fail(error, os);
    }
    if (fwd.capacity < 0 || fwd.flow < 0 || fwd.flow > fwd.capacity) {
      std::ostringstream os;
      os << "arc " << i << ": flow " << fwd.flow << " outside [0, capacity="
         << fwd.capacity << "]";
      return Fail(error, os);
    }
    if (rev.capacity != 0) {
      std::ostringstream os;
      os << "arc " << i + 1 << ": residual twin has capacity " << rev.capacity
         << " (must be 0)";
      return Fail(error, os);
    }
    if (rev.flow != -fwd.flow) {
      std::ostringstream os;
      os << "arc pair " << i << ": twin flow " << rev.flow
         << " != -forward flow " << -fwd.flow;
      return Fail(error, os);
    }
    if (rev.cost != -fwd.cost) {
      std::ostringstream os;
      os << "arc pair " << i << ": twin cost " << rev.cost
         << " != -forward cost " << -fwd.cost;
      return Fail(error, os);
    }
  }
  // CSR audit: freeze (no-op when clean — a test peer's corruption of the
  // frozen arrays survives this), then check offsets shape and that every
  // arc id appears exactly once, under its tail (an arc's tail is its twin's
  // head).
  Freeze();
  if (csr_offsets_.size() != vertices + 1 || csr_offsets_.front() != 0 ||
      static_cast<std::size_t>(csr_offsets_.back()) != arcs_.size() ||
      csr_arcs_.size() != arcs_.size()) {
    std::ostringstream os;
    os << "CSR shape mismatch: " << csr_offsets_.size() << " offsets / "
       << csr_arcs_.size() << " entries for " << vertices << " vertices / "
       << arcs_.size() << " arcs";
    return Fail(error, os);
  }
  std::vector<std::uint8_t> seen(arcs_.size(), 0);
  for (std::size_t v = 0; v < vertices; ++v) {
    if (csr_offsets_[v] > csr_offsets_[v + 1]) {
      std::ostringstream os;
      os << "CSR offsets not monotone at vertex " << v;
      return Fail(error, os);
    }
    for (std::int32_t raw : OutArcs(VertexId(static_cast<std::int32_t>(v)))) {
      if (raw < 0 || static_cast<std::size_t>(raw) >= arcs_.size()) {
        std::ostringstream os;
        os << "vertex " << v << ": adjacency entry " << raw
           << " outside arc range [0, " << arcs_.size() << ")";
        return Fail(error, os);
      }
      if (seen[static_cast<std::size_t>(raw)]++) {
        std::ostringstream os;
        os << "arc " << raw << " listed in adjacency more than once";
        return Fail(error, os);
      }
      const Arc& twin = arcs_[static_cast<std::size_t>(raw) ^ 1];
      if (static_cast<std::size_t>(twin.head.value()) != v) {
        std::ostringstream os;
        os << "arc " << raw << " listed under vertex " << v
           << " but its tail is " << twin.head;
        return Fail(error, os);
      }
    }
  }
  for (std::size_t i = 0; i < arcs_.size(); ++i) {
    if (!seen[i]) {
      std::ostringstream os;
      os << "arc " << i << " missing from every adjacency list";
      return Fail(error, os);
    }
  }
  // Flow conservation at interior vertices.
  std::vector<std::uint8_t> is_exempt(vertices, 0);
  for (VertexId v : exempt) {
    if (v.valid() && static_cast<std::size_t>(v.value()) < vertices) {
      is_exempt[static_cast<std::size_t>(v.value())] = 1;
    }
  }
  for (std::size_t v = 0; v < vertices; ++v) {
    if (is_exempt[v]) continue;
    const Capacity net = NetOutflow(VertexId(static_cast<std::int32_t>(v)));
    if (net != 0) {
      std::ostringstream os;
      os << "vertex " << v << ": net outflow " << net
         << " at non-exempt vertex (conservation violated)";
      return Fail(error, os);
    }
  }
  return true;
}

}  // namespace aladdin::flow
