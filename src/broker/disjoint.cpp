#include "broker/disjoint.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "graph/sampling.hpp"

namespace bsr::broker {

using bsr::graph::CsrGraph;
using bsr::graph::kUnreachable;
using bsr::graph::NodeId;
using bsr::graph::Rng;

namespace {

std::uint64_t edge_key(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// Shortest dominating path avoiding `removed` edges; empty if none. When a
/// fault plane is given, down edges and edges into down vertices are treated
/// exactly like removed edges.
std::vector<NodeId> shortest_avoiding(const CsrGraph& g, const BrokerSet& b,
                                      const bsr::graph::FaultPlane* faults,
                                      NodeId src, NodeId dst,
                                      const std::unordered_set<std::uint64_t>& removed,
                                      std::vector<NodeId>& parent,
                                      std::vector<NodeId>& queue) {
  std::fill(parent.begin(), parent.end(), kUnreachable);
  queue.clear();
  parent[src] = src;
  queue.push_back(src);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    const auto nbrs = g.neighbors(u);
    for (std::size_t slot = 0; slot < nbrs.size(); ++slot) {
      const NodeId v = nbrs[slot];
      if (parent[v] != kUnreachable) continue;
      if (!b.dominates_edge(u, v)) continue;
      if (removed.contains(edge_key(u, v))) continue;
      if (faults != nullptr &&
          (!faults->edge_up_at(u, slot) || !faults->vertex_ok(v))) {
        continue;
      }
      parent[v] = u;
      if (v == dst) {
        std::vector<NodeId> path{dst};
        for (NodeId w = dst; w != src; w = parent[w]) path.push_back(parent[w]);
        std::reverse(path.begin(), path.end());
        return path;
      }
      queue.push_back(v);
    }
  }
  return {};
}

DisjointPathsResult disjoint_impl(const CsrGraph& g, const BrokerSet& b,
                                  const bsr::graph::FaultPlane* faults, NodeId src,
                                  NodeId dst, std::uint32_t max_paths) {
  DisjointPathsResult result;
  if (src == dst || src >= g.num_vertices() || dst >= g.num_vertices()) return result;
  if (faults != nullptr && (!faults->vertex_ok(src) || !faults->vertex_ok(dst))) {
    return result;
  }

  std::unordered_set<std::uint64_t> removed;
  std::vector<NodeId> parent(g.num_vertices());
  std::vector<NodeId> queue;
  queue.reserve(g.num_vertices());
  for (std::uint32_t i = 0; i < max_paths; ++i) {
    auto path = shortest_avoiding(g, b, faults, src, dst, removed, parent, queue);
    if (path.empty()) break;
    for (std::size_t j = 0; j + 1 < path.size(); ++j) {
      removed.insert(edge_key(path[j], path[j + 1]));
    }
    result.paths.push_back(std::move(path));
  }
  return result;
}

}  // namespace

DisjointPathsResult disjoint_dominating_paths(const CsrGraph& g, const BrokerSet& b,
                                              NodeId src, NodeId dst,
                                              std::uint32_t max_paths) {
  return disjoint_impl(g, b, nullptr, src, dst, max_paths);
}

DisjointPathsResult disjoint_dominating_paths(const CsrGraph& g, const BrokerSet& b,
                                              const bsr::graph::FaultPlane& faults,
                                              NodeId src, NodeId dst,
                                              std::uint32_t max_paths) {
  if (&faults.graph() != &g) {
    throw std::invalid_argument(
        "disjoint_dominating_paths: fault plane bound to another graph");
  }
  return disjoint_impl(g, b, &faults, src, dst, max_paths);
}

PathDiversityStats path_diversity(const CsrGraph& g, const BrokerSet& b, Rng& rng,
                                  std::size_t num_pairs) {
  PathDiversityStats stats;
  if (g.num_vertices() < 2) return stats;
  const auto pairs = bsr::graph::sample_pairs(rng, g.num_vertices(), num_pairs);
  stats.pairs_sampled = pairs.size();
  std::size_t one = 0, two = 0;
  for (const auto& [src, dst] : pairs) {
    const auto result = disjoint_dominating_paths(g, b, src, dst, 2);
    if (result.count() >= 1) ++one;
    if (result.count() >= 2) ++two;
  }
  stats.with_one = static_cast<double>(one) / static_cast<double>(pairs.size());
  stats.with_two = static_cast<double>(two) / static_cast<double>(pairs.size());
  return stats;
}

}  // namespace bsr::broker
