#include "broker/weighted.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "broker/dominated.hpp"
#include "graph/engine.hpp"
#include "graph/rollback_union_find.hpp"

namespace bsr::broker {

using bsr::graph::CsrGraph;
using bsr::graph::NodeId;
using bsr::graph::RollbackUnionFind;

namespace engine = bsr::graph::engine;

namespace {

void validate_brokers(const CsrGraph& g, const BrokerSet& b) {
  if (b.num_vertices() != g.num_vertices()) {
    throw std::invalid_argument("weighted broker ops: broker set size mismatch");
  }
}

void validate_weights(const CsrGraph& g, std::span<const double> weight) {
  if (weight.size() != g.num_vertices()) {
    throw std::invalid_argument("weighted broker ops: weight size mismatch");
  }
  for (const double w : weight) {
    if (w < 0.0) throw std::invalid_argument("weighted broker ops: negative weight");
  }
}

}  // namespace

double weighted_coverage(const CsrGraph& g, const BrokerSet& b,
                         std::span<const double> weight) {
  validate_brokers(g, b);
  validate_weights(g, weight);
  auto& ws = engine::tls_workspace();
  ws.begin_marks(g.num_vertices());
  double total = 0.0;
  for (const NodeId v : b.members()) {
    if (ws.mark(v)) total += weight[v];
    for (const NodeId w : g.neighbors(v)) {
      if (ws.mark(w)) total += weight[w];
    }
  }
  return total;
}

WeightedGreedyResult weighted_greedy_mcb(const CsrGraph& g, std::uint32_t k,
                                         std::span<const double> weight) {
  if (g.num_vertices() == 0) {
    throw std::invalid_argument("weighted_greedy_mcb: empty graph");
  }
  validate_weights(g, weight);

  WeightedGreedyResult result;
  result.brokers = BrokerSet(g.num_vertices());
  if (k == 0) return result;

  std::vector<bool> covered(g.num_vertices(), false);
  std::vector<bool> is_broker(g.num_vertices(), false);
  double covered_weight = 0.0;

  const auto gain_of = [&](NodeId v) {
    double gain = covered[v] ? 0.0 : weight[v];
    for (const NodeId w : g.neighbors(v)) {
      if (!covered[w]) gain += weight[w];
    }
    return gain;
  };

  struct Entry {
    double gain;
    NodeId vertex;
    std::uint32_t stamp;
    bool operator<(const Entry& other) const {
      if (gain != other.gain) return gain < other.gain;
      return vertex > other.vertex;
    }
  };
  std::priority_queue<Entry> heap;
  for (NodeId v = 0; v < g.num_vertices(); ++v) heap.push({gain_of(v), v, 0});

  std::uint32_t round = 0;
  while (result.brokers.size() < k && !heap.empty()) {
    Entry top = heap.top();
    heap.pop();
    if (is_broker[top.vertex]) continue;
    if (top.stamp != round) {
      top.gain = gain_of(top.vertex);
      top.stamp = round;
      if (top.gain > 0.0) heap.push(top);
      continue;
    }
    if (top.gain <= 0.0) break;  // nothing of value left to cover
    is_broker[top.vertex] = true;
    if (!covered[top.vertex]) {
      covered[top.vertex] = true;
      covered_weight += weight[top.vertex];
    }
    for (const NodeId w : g.neighbors(top.vertex)) {
      if (!covered[w]) {
        covered[w] = true;
        covered_weight += weight[w];
      }
    }
    result.brokers.add(top.vertex);
    result.coverage_curve.push_back(covered_weight);
    ++round;
  }
  result.coverage = covered_weight;
  return result;
}

double weighted_saturated_connectivity(const CsrGraph& g, const BrokerSet& b,
                                       std::span<const double> weight) {
  validate_brokers(g, b);
  validate_weights(g, weight);
  const NodeId n = g.num_vertices();
  if (n < 2) return 0.0;

  // The double sums below are indexed by root id and accumulated in
  // vertex-scan order, so root identity — fixed by the union-find's merge
  // rule and the unite order — fixes the floating-point result.
  RollbackUnionFind uf(n);
  build_dominated_uf(g, b, uf);
  // Σ_{pairs in same component} w_u w_v = Σ_c (S_c² - Q_c) / 2 with
  // S_c = Σ w, Q_c = Σ w² over the component.
  std::vector<double> sum(n, 0.0), sum_sq(n, 0.0);
  double total_weight = 0.0, total_sq = 0.0;
  for (NodeId v = 0; v < n; ++v) {
    const NodeId root = uf.find(v);
    sum[root] += weight[v];
    sum_sq[root] += weight[v] * weight[v];
    total_weight += weight[v];
    total_sq += weight[v] * weight[v];
  }
  double connected = 0.0;
  for (NodeId v = 0; v < n; ++v) {
    if (uf.find(v) == v) connected += (sum[v] * sum[v] - sum_sq[v]) / 2.0;
  }
  const double all_pairs = (total_weight * total_weight - total_sq) / 2.0;
  return all_pairs > 0.0 ? connected / all_pairs : 0.0;
}

WeightedMaxSgResult weighted_maxsg(const CsrGraph& g, std::uint32_t k,
                                   std::span<const double> weight) {
  if (g.num_vertices() == 0) throw std::invalid_argument("weighted_maxsg: empty graph");
  validate_weights(g, weight);

  const NodeId n = g.num_vertices();
  WeightedMaxSgResult result;
  result.brokers = BrokerSet(n);
  if (k == 0) return result;

  RollbackUnionFind uf(n);
  // Per-root component weight, maintained alongside the union-find. After
  // unite(), the surviving root's entry must hold the merged total.
  std::vector<double> component_weight(weight.begin(), weight.end());
  std::vector<bool> is_broker(n, false);
  std::vector<std::uint32_t> stamp(n, 0);
  std::uint32_t epoch = 0;
  double heaviest = 0.0;

  // Per-round root/weight snapshot: no unions happen during a sweep, so
  // candidate gains are flat array loads. Roots snapshotted before a sweep
  // equal live find() results, so the stamp-dedup visits roots in the same
  // first-encounter order — the double accumulation order (and thus the
  // result) is unchanged.
  std::vector<NodeId> root_of(n);
  std::vector<double> weight_of(n);

  const auto candidate_gain = [&](NodeId w) {
    ++epoch;
    double merged = 0.0;
    const NodeId rw = root_of[w];
    stamp[rw] = epoch;
    merged += weight_of[rw];
    for (const NodeId v : g.neighbors(w)) {
      const NodeId r = root_of[v];
      if (stamp[r] != epoch) {
        stamp[r] = epoch;
        merged += weight_of[r];
      }
    }
    return merged;
  };

  while (result.brokers.size() < k) {
    for (NodeId v = 0; v < n; ++v) root_of[v] = uf.find(v);
    for (NodeId v = 0; v < n; ++v) {
      if (root_of[v] == v) weight_of[v] = component_weight[v];
    }
    NodeId best = bsr::graph::kUnreachable;
    double best_gain = heaviest;  // only picks growing the heaviest component help
    for (NodeId w = 0; w < n; ++w) {
      if (is_broker[w]) continue;
      const double gain = candidate_gain(w);
      if (gain > best_gain) {
        best_gain = gain;
        best = w;
      }
    }
    if (best == bsr::graph::kUnreachable) break;  // no pick improves the objective
    is_broker[best] = true;
    result.brokers.add(best);
    for (const NodeId v : g.neighbors(best)) {
      const NodeId ra = uf.find(best);
      const NodeId rb = uf.find(v);
      if (ra != rb) {
        const double merged = component_weight[ra] + component_weight[rb];
        uf.unite(best, v);
        component_weight[uf.find(best)] = merged;
      }
    }
    heaviest = std::max(heaviest, component_weight[uf.find(best)]);
    result.component_weight_curve.push_back(heaviest);
  }
  result.final_component_weight = heaviest;
  return result;
}

}  // namespace bsr::broker
