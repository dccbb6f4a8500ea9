#include "sim/latency.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/dijkstra.hpp"

namespace bsr::sim {

using bsr::graph::NodeId;

namespace {

int tier_rank(const topology::InternetTopology& topo, NodeId v) {
  if (topo.is_ixp(v)) return 1;  // IXP fabrics sit in the core
  switch (topo.meta[v].tier) {
    case topology::Tier::kTier1: return 1;
    case topology::Tier::kTier2: return 2;
    case topology::Tier::kTier3: return 3;
    default: return 4;
  }
}

}  // namespace

LatencyModel::LatencyModel(const topology::InternetTopology& topo,
                           const LatencyModelConfig& config, bsr::graph::Rng& rng)
    : graph_(&topo.graph) {
  if (config.jitter < 0.0) {
    throw std::invalid_argument("LatencyModel: negative jitter");
  }
  const auto& g = topo.graph;
  const NodeId n = g.num_vertices();
  latency_by_slot_.assign(g.adjacency().size(), 0.0);

  // One draw per undirected edge, mirrored to both slots for symmetry.
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (u > v) continue;
      const int rank = std::min(tier_rank(topo, u), tier_rank(topo, v));
      double base = config.edge_base_ms;
      if (rank <= 2) base = config.core_base_ms;
      else if (rank == 3) base = config.transit_base_ms;
      const double value = base * (1.0 + config.jitter * rng.uniform01());
      latency_by_slot_[slot(u, v)] = value;
      latency_by_slot_[slot(v, u)] = value;
    }
  }
}

std::size_t LatencyModel::slot(NodeId u, NodeId v) const {
  const NodeId n = graph_->num_vertices();
  if (u >= n || v >= n) {
    throw std::invalid_argument("LatencyModel: vertex id out of range");
  }
  const auto nbrs = graph_->neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) {
    throw std::invalid_argument("LatencyModel: not an edge");
  }
  return graph_->offsets()[u] + static_cast<std::size_t>(it - nbrs.begin());
}

double LatencyModel::latency(NodeId u, NodeId v) const {
  return latency_by_slot_[slot(u, v)];
}

double LatencyModel::path_latency(std::span<const NodeId> path) const {
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    total += latency(path[i], path[i + 1]);
  }
  return total;
}

LatencyRoute route_min_latency(const bsr::graph::CsrGraph& g, const LatencyModel& model,
                               NodeId src, NodeId dst,
                               const bsr::broker::BrokerSet* brokers) {
  LatencyRoute route;
  if (src >= g.num_vertices() || dst >= g.num_vertices()) return route;
  // Inadmissible edges get infinite weight — Dijkstra will never relax them
  // into a finite-distance path.
  const auto weight = [&](NodeId u, NodeId v) {
    if (brokers != nullptr && !brokers->dominates_edge(u, v)) {
      return bsr::graph::kInfDistance;
    }
    return model.latency(u, v);
  };
  const auto result = bsr::graph::dijkstra(g, src, weight);
  if (result.distance[dst] == bsr::graph::kInfDistance) return route;
  route.path = bsr::graph::extract_path(result, src, dst);
  route.latency_ms = result.distance[dst];
  return route;
}

}  // namespace bsr::sim
