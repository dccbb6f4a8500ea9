#include "topology/relationships.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/engine.hpp"

namespace bsr::topology {

using bsr::graph::CsrGraph;
using bsr::graph::Edge;
using bsr::graph::kUnreachable;
using bsr::graph::NodeId;

void EdgeRelations::snapshot(const CsrGraph& g) {
  offsets_.assign(g.offsets().begin(), g.offsets().end());
  adjacency_.assign(g.adjacency().begin(), g.adjacency().end());
}

EdgeRelations::EdgeRelations(const CsrGraph& g, std::span<const Edge> edges,
                             std::span<const EdgeRel> rels) {
  if (edges.size() != rels.size()) {
    throw std::invalid_argument("EdgeRelations: edges/rels size mismatch");
  }
  if (edges.size() != g.num_edges()) {
    throw std::invalid_argument("EdgeRelations: edge count does not match graph");
  }
  snapshot(g);
  rel_by_slot_.resize(adjacency_.size());

  // A vertex's sorted list holds its smaller neighbors, then its larger
  // ones, and the sorted edge list reaches both groups in that same order.
  // So the next unused slot of each endpoint must hold the other endpoint:
  // one cursor per vertex replaces a search per edge, and with the counts
  // equal, a strictly ascending list that passes matches the graph exactly.
  const NodeId n = g.num_vertices();
  std::vector<std::uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    if (e.u >= e.v) throw std::invalid_argument("EdgeRelations: edges must be canonical");
    if (i > 0 && !(edges[i - 1] < e)) {
      throw std::invalid_argument("EdgeRelations: edges must be sorted and unique");
    }
    if (e.v >= n) throw std::invalid_argument("EdgeRelations: edge not present in graph");
    const std::uint64_t su = cursor[e.u]++;
    const std::uint64_t sv = cursor[e.v]++;
    if (su >= offsets_[e.u + 1] || adjacency_[su] != e.v ||
        sv >= offsets_[e.v + 1] || adjacency_[sv] != e.u) {
      throw std::invalid_argument("EdgeRelations: edge not present in graph");
    }
    rel_by_slot_[su] = rels[i];
    rel_by_slot_[sv] = rels[i];
  }
}

EdgeRelations::EdgeRelations(const CsrGraph& g, std::vector<EdgeRel> rel_by_slot)
    : rel_by_slot_(std::move(rel_by_slot)) {
  snapshot(g);
  if (rel_by_slot_.size() != adjacency_.size()) {
    throw std::invalid_argument("EdgeRelations: need one label per adjacency slot");
  }
  // Scanning u in ascending order reaches each larger neighbor v's slot for
  // u in the order v lists its smaller neighbors, so a cursor per vertex
  // finds the reverse slot of every edge.
  const NodeId n = g.num_vertices();
  std::vector<std::uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (NodeId u = 0; u < n; ++u) {
    for (std::uint64_t s = offsets_[u]; s < offsets_[u + 1]; ++s) {
      const NodeId v = adjacency_[s];
      if (v < u) continue;
      const std::uint64_t back = cursor[v]++;
      if (back >= offsets_[v + 1] || adjacency_[back] != u ||
          rel_by_slot_[back] != rel_by_slot_[s]) {
        throw std::invalid_argument(
            "EdgeRelations: the two slots of an edge must carry one label");
      }
    }
  }
}

std::size_t EdgeRelations::slot(NodeId u, NodeId v) const {
  if (static_cast<std::size_t>(u) + 1 >= offsets_.size() ||
      static_cast<std::size_t>(v) + 1 >= offsets_.size()) {
    throw std::invalid_argument("EdgeRelations: vertex id out of range");
  }
  const auto begin = adjacency_.begin() + static_cast<std::ptrdiff_t>(offsets_[u]);
  const auto end = adjacency_.begin() + static_cast<std::ptrdiff_t>(offsets_[u + 1]);
  const auto it = std::lower_bound(begin, end, v);
  if (it == end || *it != v) throw std::invalid_argument("EdgeRelations: not an edge");
  return static_cast<std::size_t>(it - adjacency_.begin());
}

EdgeRel EdgeRelations::rel_canonical(NodeId u, NodeId v) const {
  if (u > v) std::swap(u, v);
  return rel_by_slot_[slot(u, v)];
}

bool EdgeRelations::is_provider_of(NodeId provider, NodeId customer) const {
  const EdgeRel rel = rel_canonical(provider, customer);
  if (rel == EdgeRel::kPeer) return false;
  const bool canonical_u_is_provider = (rel == EdgeRel::kUProviderOfV);
  const NodeId canonical_u = std::min(provider, customer);
  return canonical_u_is_provider == (provider == canonical_u);
}

bool EdgeRelations::is_peer(NodeId u, NodeId v) const {
  return rel_canonical(u, v) == EdgeRel::kPeer;
}

double EdgeRelations::peer_fraction() const {
  if (rel_by_slot_.empty()) return 0.0;
  std::size_t peers = 0;
  for (const EdgeRel rel : rel_by_slot_) {
    if (rel == EdgeRel::kPeer) ++peers;
  }
  return static_cast<double>(peers) / static_cast<double>(rel_by_slot_.size());
}

bool EdgeRelations::aligned_with(const CsrGraph& g) const noexcept {
  return std::ranges::equal(offsets_, g.offsets()) &&
         std::ranges::equal(adjacency_, g.adjacency());
}

namespace {

namespace engine = bsr::graph::engine;

// The states of a valley-free walk's product BFS are its phases:
//   0 = still climbing (only c2p hops so far)
//   1 = crossed the single allowed peer hop
//   2 = descending (one or more p2c hops taken)
// Allowed transitions from phase p over edge u->v:
//   c2p (v is u's provider): only from phase 0, stay 0
//   peer:                    from phase 0, go to 1
//   p2c (v is u's customer): from any phase, go to 2
constexpr std::uint32_t kPhases = 3;

std::uint32_t next_phase(const EdgeRelations& rels, NodeId u, std::uint32_t phase,
                         std::size_t slot, NodeId v) {
  const EdgeRel rel = rels.canonical_rels_of(u)[slot];  // slot-aligned: O(1)
  if (rel == EdgeRel::kPeer) return phase == 0 ? 1 : engine::kNoState;
  if (!EdgeRelations::rel_means_v_provides_u(rel, u, v)) return 2;
  return phase == 0 ? 0 : engine::kNoState;
}

// Its own workspace rather than engine::tls_workspace(), so a caller may hold a
// traversal there across a valley-free call.
engine::Workspace& valley_free_workspace() {
  thread_local engine::Workspace ws;
  return ws;
}

}  // namespace

std::vector<std::uint32_t> valley_free_distances(
    const CsrGraph& g, const EdgeRelations& rels, NodeId source,
    const std::function<bool(NodeId, NodeId)>& edge_ok,
    const EdgeOverrideFn& override_edge) {
  if (source >= g.num_vertices()) {
    throw std::invalid_argument("valley_free_distances: source out of range");
  }
  if (!rels.aligned_with(g)) {
    throw std::invalid_argument("valley_free_distances: relations of another graph");
  }
  auto& ws = valley_free_workspace();
  engine::product_bfs(g, kPhases, source, ws,
                      [&](NodeId u, std::uint32_t phase, std::size_t slot, NodeId v) {
                        if (edge_ok && !edge_ok(u, v)) return engine::kNoState;
                        // Override edges are usable from any phase and keep it.
                        if (override_edge && override_edge(u, v)) return phase;
                        return next_phase(rels, u, phase, slot, v);
                      });
  // States leave the queue in nondecreasing distance, so the first state of
  // a vertex in visit order is its nearest.
  std::vector<std::uint32_t> dist(g.num_vertices(), kUnreachable);
  for (const NodeId state : ws.visit_order()) {
    std::uint32_t& d = dist[state / kPhases];
    if (d == kUnreachable) d = ws.dist_unchecked(state);
  }
  return dist;
}

std::vector<NodeId> valley_free_path(const CsrGraph& g, const EdgeRelations& rels,
                                     NodeId src, NodeId dst) {
  if (!rels.aligned_with(g)) {
    throw std::invalid_argument("valley_free_path: relations of another graph");
  }
  if (src >= g.num_vertices() || dst >= g.num_vertices()) return {};
  auto& ws = valley_free_workspace();
  // The first state of dst discovered is a shortest admissible path.
  const std::uint32_t goal = engine::product_bfs(
      g, kPhases, src, ws,
      [&rels](NodeId u, std::uint32_t phase, std::size_t slot, NodeId v) {
        return next_phase(rels, u, phase, slot, v);
      },
      engine::TargetStop{dst});
  if (goal == engine::kNoState) return {};
  return engine::product_path(ws, kPhases, goal);
}

std::vector<EdgeRel> infer_relationships_by_degree(const CsrGraph& g,
                                                   std::span<const Edge> edges,
                                                   double peer_ratio) {
  if (peer_ratio < 1.0) {
    throw std::invalid_argument("infer_relationships_by_degree: ratio must be >= 1");
  }
  std::vector<EdgeRel> out;
  out.reserve(edges.size());
  for (const Edge& e : edges) {
    const double du = g.degree(e.u);
    const double dv = g.degree(e.v);
    if (du >= dv * peer_ratio) {
      out.push_back(EdgeRel::kUProviderOfV);
    } else if (dv >= du * peer_ratio) {
      out.push_back(EdgeRel::kVProviderOfU);
    } else {
      out.push_back(EdgeRel::kPeer);
    }
  }
  return out;
}

}  // namespace bsr::topology
