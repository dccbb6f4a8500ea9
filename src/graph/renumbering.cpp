#include "graph/renumbering.hpp"

#include <numeric>
#include <stdexcept>

#include "graph/degree_stats.hpp"
#include "graph/engine.hpp"

namespace bsr::graph {

namespace {

std::vector<NodeId> invert(const std::vector<NodeId>& to_old) {
  std::vector<NodeId> to_new(to_old.size());
  for (NodeId new_id = 0; new_id < to_old.size(); ++new_id) {
    to_new[to_old[new_id]] = new_id;
  }
  return to_new;
}

}  // namespace

Renumbering Renumbering::identity(NodeId n) {
  Renumbering r;
  r.to_old_.resize(n);
  std::iota(r.to_old_.begin(), r.to_old_.end(), NodeId{0});
  r.to_new_ = r.to_old_;
  return r;
}

Renumbering Renumbering::from_new_order(std::vector<NodeId> order) {
  const std::size_t n = order.size();
  std::vector<bool> seen(n, false);
  for (const NodeId old_id : order) {
    if (old_id >= n || seen[old_id]) {
      throw std::invalid_argument(
          "Renumbering::from_new_order: not a permutation of [0, n)");
    }
    seen[old_id] = true;
  }
  Renumbering r;
  r.to_old_ = std::move(order);
  r.to_new_ = invert(r.to_old_);
  return r;
}

Renumbering Renumbering::degree_descending(const CsrGraph& g) {
  Renumbering r;
  r.to_old_ = vertices_by_degree_desc(g);
  r.to_new_ = invert(r.to_old_);
  return r;
}

Renumbering Renumbering::degree_descending_segmented(const CsrGraph& g,
                                                     NodeId boundary) {
  const NodeId n = g.num_vertices();
  if (boundary > n) {
    throw std::invalid_argument(
        "Renumbering::degree_descending_segmented: boundary > num_vertices");
  }
  // vertices_by_degree_desc is degree-descending with ascending-id ties; a
  // stable partition by segment preserves that order within each segment.
  const std::vector<NodeId> global = vertices_by_degree_desc(g);
  Renumbering r;
  r.to_old_.reserve(n);
  for (const NodeId v : global) {
    if (v < boundary) r.to_old_.push_back(v);
  }
  for (const NodeId v : global) {
    if (v >= boundary) r.to_old_.push_back(v);
  }
  r.to_new_ = invert(r.to_old_);
  return r;
}

Renumbering Renumbering::bfs_order(const CsrGraph& g, NodeId source) {
  const NodeId n = g.num_vertices();
  if (source >= n) {
    throw std::invalid_argument("Renumbering::bfs_order: source out of range");
  }
  engine::Workspace ws(n);
  engine::bfs(g, source, ws, engine::AllEdges{});
  Renumbering r;
  r.to_old_.reserve(n);
  const auto order = ws.visit_order();
  r.to_old_.assign(order.begin(), order.end());
  for (NodeId v = 0; v < n; ++v) {
    if (!ws.visited(v)) r.to_old_.push_back(v);
  }
  r.to_new_ = invert(r.to_old_);
  return r;
}

bool Renumbering::is_identity() const {
  for (NodeId v = 0; v < to_new_.size(); ++v) {
    if (to_new_[v] != v) return false;
  }
  return true;
}

CsrGraph Renumbering::apply(const CsrGraph& g) const {
  return apply(g, [](std::uint64_t, std::uint64_t, bool) {});
}

std::vector<NodeId> Renumbering::map_to_new(std::span<const NodeId> old_ids) const {
  std::vector<NodeId> out;
  out.reserve(old_ids.size());
  for (const NodeId v : old_ids) out.push_back(to_new(v));
  return out;
}

std::vector<NodeId> Renumbering::map_to_old(std::span<const NodeId> new_ids) const {
  std::vector<NodeId> out;
  out.reserve(new_ids.size());
  for (const NodeId v : new_ids) out.push_back(to_old(v));
  return out;
}

Edge Renumbering::map_edge_to_new(Edge e) const {
  const NodeId u = to_new(e.u);
  const NodeId v = to_new(e.v);
  return u < v ? Edge{u, v} : Edge{v, u};
}

std::uint64_t total_neighbor_gap(const CsrGraph& g) {
  std::uint64_t total = 0;
  const NodeId n = g.num_vertices();
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : g.neighbors(u)) {
      total += u > v ? u - v : v - u;
    }
  }
  return total;
}

double average_neighbor_gap(const CsrGraph& g) {
  const std::uint64_t entries = 2 * g.num_edges();
  if (entries == 0) return 0.0;
  return static_cast<double>(total_neighbor_gap(g)) / static_cast<double>(entries);
}

}  // namespace bsr::graph
