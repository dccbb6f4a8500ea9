#include "broker/dominated.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/sampling.hpp"

namespace bsr::broker {

using bsr::graph::CsrGraph;
using bsr::graph::NodeId;
using bsr::graph::Rng;

namespace engine = bsr::graph::engine;

DominatedEvaluator::DominatedEvaluator(const CsrGraph& g, const BrokerSet& b,
                                       const bsr::graph::FaultPlane* faults)
    : graph_(&g), brokers_(&b), faults_(faults), uf_(g.num_vertices()) {
  if (b.num_vertices() != g.num_vertices()) {
    throw std::invalid_argument("DominatedEvaluator: size mismatch");
  }
  if (faults != nullptr && &faults->graph() != &g) {
    throw std::invalid_argument("DominatedEvaluator: fault plane bound to another graph");
  }
  build_dominated_uf(g, b, uf_, faults_);
}

void DominatedEvaluator::rebuild() {
  uf_.reset(graph_->num_vertices());
  build_dominated_uf(*graph_, *brokers_, uf_, faults_);
}

double DominatedEvaluator::connectivity() const noexcept {
  const NodeId n = graph_->num_vertices();
  if (n < 2) return 0.0;
  // connected_pairs() is an exact integer < 2^53 for any realistic |V|, so
  // this matches a per-component double summation bit-for-bit.
  const double total_pairs = static_cast<double>(n) * (n - 1.0) / 2.0;
  return static_cast<double>(uf_.connected_pairs()) / total_pairs;
}

double saturated_connectivity(const CsrGraph& g, const BrokerSet& b) {
  const DominatedEvaluator evaluator(g, b);
  return evaluator.connectivity();
}

double saturated_connectivity(const CsrGraph& g, const BrokerSet& b,
                              const bsr::graph::FaultPlane& faults) {
  const DominatedEvaluator evaluator(g, b, &faults);
  return evaluator.connectivity();
}

bsr::graph::DistanceCdf dominated_distance_cdf(const CsrGraph& g, const BrokerSet& b,
                                               Rng& rng, std::size_t num_sources) {
  if (b.num_vertices() != g.num_vertices()) {
    throw std::invalid_argument("dominated_distance_cdf: size mismatch");
  }
  return bsr::graph::distance_cdf_sampled(g, rng, num_sources,
                                          engine::DominatedEdgeFilter{&b.mask()});
}

BrokerOnlyShare broker_only_share(const CsrGraph& g, const BrokerSet& b, Rng& rng,
                                  std::size_t num_pairs) {
  BrokerOnlyShare out;
  const NodeId n = g.num_vertices();
  if (n < 2 || b.empty()) return out;

  // Components of G_B (any dominating path) ...
  const DominatedEvaluator dominated(g, b);
  // ... and components of the broker-induced subgraph (edges inside B only).
  bsr::graph::RollbackUnionFind broker_uf(n);
  for (const NodeId u : b.members()) {
    for (const NodeId v : g.neighbors(u)) {
      if (b.contains(v)) broker_uf.unite(u, v);
    }
  }

  // A pair (u, v) is broker-only connected iff some broker component is
  // adjacent-or-equal to both endpoints. Most vertices attach to few broker
  // components, so compare small sorted root lists per endpoint.
  const auto attached_roots = [&](NodeId v) {
    std::vector<NodeId> roots;
    if (b.contains(v)) {
      roots.push_back(broker_uf.find(v));
    } else {
      for (const NodeId w : g.neighbors(v)) {
        if (b.contains(w)) roots.push_back(broker_uf.find(w));
      }
    }
    std::sort(roots.begin(), roots.end());
    roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
    return roots;
  };

  const auto pairs = bsr::graph::sample_pairs(rng, n, num_pairs);
  out.pairs_sampled = pairs.size();
  std::size_t broker_only_count = 0;
  for (const auto& [u, v] : pairs) {
    if (!dominated.uf().connected(u, v)) continue;
    ++out.pairs_connected;
    const auto roots_u = attached_roots(u);
    const auto roots_v = attached_roots(v);
    const bool shared = std::ranges::any_of(roots_u, [&](NodeId r) {
      return std::binary_search(roots_v.begin(), roots_v.end(), r);
    });
    if (shared) ++broker_only_count;
  }
  if (out.pairs_connected > 0) {
    out.broker_only = static_cast<double>(broker_only_count) /
                      static_cast<double>(out.pairs_connected);
  }
  return out;
}

std::uint32_t largest_dominated_component(const CsrGraph& g, const BrokerSet& b) {
  if (g.num_vertices() == 0) return 0;
  const DominatedEvaluator evaluator(g, b);
  return evaluator.largest_component();
}

}  // namespace bsr::broker
