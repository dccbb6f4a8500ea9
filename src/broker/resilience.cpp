#include "broker/resilience.hpp"

#include <algorithm>
#include <stdexcept>

#include "broker/dominated.hpp"
#include "graph/check.hpp"
#include "graph/engine.hpp"
#include "graph/rollback_union_find.hpp"

namespace bsr::broker {

using bsr::graph::CsrGraph;
using bsr::graph::NodeId;
using bsr::graph::Rng;

namespace engine = bsr::graph::engine;

BrokerSet fail_brokers(const CsrGraph& g, const BrokerSet& b, std::size_t failures,
                       FailureMode mode, Rng& rng) {
  if (b.num_vertices() != g.num_vertices()) {
    throw std::invalid_argument("fail_brokers: size mismatch");
  }
  std::vector<NodeId> members(b.members().begin(), b.members().end());
  std::vector<NodeId> doomed;
  if (failures >= members.size()) {
    // failures >= |B| (including |B| == 0): nobody survives, and the rng is
    // deliberately not consumed — the outcome has no randomness left in it.
    doomed = members;
  } else if (mode == FailureMode::kRandom) {
    // Partial Fisher-Yates over a copy.
    std::vector<NodeId> pool = members;
    for (std::size_t i = 0; i < failures; ++i) {
      const std::size_t j = i + rng.uniform(pool.size() - i);
      std::swap(pool[i], pool[j]);
      doomed.push_back(pool[i]);
    }
  } else {
    // Adversarial order: highest degree first, ties broken by lowest NodeId
    // so equal-degree brokers die in a deterministic order.
    std::vector<NodeId> sorted = members;
    std::stable_sort(sorted.begin(), sorted.end(), [&g](NodeId a, NodeId b2) {
      if (g.degree(a) != g.degree(b2)) return g.degree(a) > g.degree(b2);
      return a < b2;
    });
    doomed.assign(sorted.begin(),
                  sorted.begin() + static_cast<std::ptrdiff_t>(failures));
  }
  BSR_DCHECK(doomed.size() == std::min(failures, members.size()));

  std::vector<bool> dead(g.num_vertices(), false);
  for (const NodeId v : doomed) dead[v] = true;
  BrokerSet survivors(g.num_vertices());
  for (const NodeId v : members) {
    if (!dead[v]) survivors.add(v);
  }
  return survivors;
}

ResilienceCurve resilience_curve(const CsrGraph& g, const BrokerSet& b,
                                 std::span<const std::size_t> failure_steps,
                                 FailureMode mode, Rng& rng) {
  ResilienceCurve curve;
  for (const std::size_t failures : failure_steps) {
    const BrokerSet survivors = fail_brokers(g, b, failures, mode, rng);
    curve.failures.push_back(failures);
    curve.connectivity.push_back(saturated_connectivity(g, survivors));
  }
  return curve;
}

namespace {

using bsr::graph::FailureGroup;
using bsr::graph::FaultPlane;

/// MaxSG-style greedy repair seeded with the survivors. The edge filter is a
/// template parameter so the fault checks fold into the scan loops (AllEdges
/// on the pristine graph, FaultAwareFilter under damage). Each round
/// snapshots the union-find into flat root/size arrays so candidate gains
/// are array loads, not find() chains.
template <class Filter>
BrokerSet repair_sweep(const CsrGraph& g, const BrokerSet& survivors,
                       std::uint32_t budget, const FaultPlane* faults,
                       Filter admit) {
  const NodeId n = g.num_vertices();
  BSR_DCHECK(survivors.num_vertices() == n);
  BrokerSet repaired = survivors;

  const auto vertex_ok = [&](NodeId v) {
    return faults == nullptr || faults->vertex_ok(v);
  };

  bsr::graph::RollbackUnionFind uf(n);
  std::vector<bool> is_broker(n, false);
  for (const NodeId b : survivors.members()) {
    is_broker[b] = true;
    if (vertex_ok(b)) engine::unite_star(g, uf, b, admit);
  }

  std::vector<NodeId> root_of(n);
  std::vector<std::uint32_t> size_of(n);
  std::vector<std::uint32_t> stamp(n, 0);
  std::uint32_t epoch = 0;
  const auto gain_of = [&](NodeId w) {
    ++epoch;
    std::uint32_t merged = 0;
    const NodeId rw = root_of[w];
    stamp[rw] = epoch;
    merged += size_of[rw];
    const auto nbrs = g.neighbors(w);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const NodeId v = nbrs[i];
      if (!admit(w, i, v)) continue;
      const NodeId r = root_of[v];
      if (stamp[r] != epoch) {
        stamp[r] = epoch;
        merged += size_of[r];
      }
    }
    return merged;
  };

  for (std::uint32_t round = 0; round < budget; ++round) {
    for (NodeId v = 0; v < n; ++v) root_of[v] = uf.find(v);
    for (NodeId v = 0; v < n; ++v) {
      if (root_of[v] == v) size_of[v] = uf.root_size(v);
    }
    NodeId best = bsr::graph::kUnreachable;
    std::uint32_t best_gain = 0;
    for (NodeId w = 0; w < n; ++w) {
      if (is_broker[w] || !vertex_ok(w)) continue;
      const auto gain = gain_of(w);
      if (gain > best_gain) {
        best_gain = gain;
        best = w;
      }
    }
    if (best == bsr::graph::kUnreachable) break;
    is_broker[best] = true;
    repaired.add(best);
    engine::unite_star(g, uf, best, admit);
  }
  return repaired;
}

BrokerSet repair_impl(const CsrGraph& g, const BrokerSet& survivors,
                      std::uint32_t budget, const FaultPlane* faults) {
  if (survivors.num_vertices() != g.num_vertices()) {
    throw std::invalid_argument("repair_brokers: size mismatch");
  }
  if (faults == nullptr) {
    return repair_sweep(g, survivors, budget, nullptr, engine::AllEdges{});
  }
  return repair_sweep(g, survivors, budget, faults,
                      engine::FaultAwareFilter{faults});
}

}  // namespace

BrokerSet repair_brokers(const CsrGraph& g, const BrokerSet& survivors,
                         std::uint32_t budget) {
  return repair_impl(g, survivors, budget, nullptr);
}

BrokerSet repair_brokers(const CsrGraph& g, const BrokerSet& survivors,
                         std::uint32_t budget, const FaultPlane& faults) {
  if (&faults.graph() != &g) {
    throw std::invalid_argument("repair_brokers: fault plane bound to another graph");
  }
  return repair_impl(g, survivors, budget, &faults);
}

ResilienceCurve resilience_curve(const CsrGraph& g, const BrokerSet& b,
                                 std::span<const FailureGroup> groups,
                                 std::span<const std::size_t> steps, Rng& rng) {
  if (b.num_vertices() != g.num_vertices()) {
    throw std::invalid_argument("resilience_curve: size mismatch");
  }
  // Same nested-prefix discipline as link_resilience_curve: one shuffled
  // outage order shared by every step, so damage only accumulates.
  std::vector<std::size_t> order(groups.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform(i)]);
  }

  ResilienceCurve curve;
  FaultPlane plane(g);
  for (const std::size_t step : steps) {
    const std::size_t failed = std::min(step, groups.size());
    plane.heal_all();
    for (std::size_t i = 0; i < failed; ++i) plane.fail_group(groups[order[i]]);
    curve.failures.push_back(failed);
    curve.connectivity.push_back(saturated_connectivity(g, b, plane));
  }
  return curve;
}

LinkResilienceCurve link_resilience_curve(const CsrGraph& g, const BrokerSet& b,
                                          std::span<const FailureGroup> groups,
                                          std::span<const std::size_t> steps,
                                          std::uint32_t repair_budget, Rng& rng) {
  if (b.num_vertices() != g.num_vertices()) {
    throw std::invalid_argument("link_resilience_curve: size mismatch");
  }
  // Deterministic outage order shared by every step: step s fails the
  // prefix of length s, so curves are nested (connectivity non-increasing).
  std::vector<std::size_t> order(groups.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform(i)]);
  }

  LinkResilienceCurve curve;
  FaultPlane plane(g);
  for (const std::size_t step : steps) {
    const std::size_t failed = std::min(step, groups.size());
    plane.heal_all();
    for (std::size_t i = 0; i < failed; ++i) plane.fail_group(groups[order[i]]);

    LinkResiliencePoint point;
    point.failed_groups = failed;
    point.failed_edges = plane.num_failed_edges();
    point.connectivity = saturated_connectivity(g, b, plane);
    const BrokerSet repaired = repair_impl(g, b, repair_budget, &plane);
    point.repaired_connectivity = saturated_connectivity(g, repaired, plane);
    curve.points.push_back(point);
  }
  return curve;
}

std::vector<FailureGroup> random_link_groups(const CsrGraph& g, std::size_t count,
                                             Rng& rng) {
  auto edges = g.edges();
  count = std::min(count, edges.size());
  std::vector<FailureGroup> groups;
  groups.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + rng.uniform(edges.size() - i);
    std::swap(edges[i], edges[j]);
    FailureGroup group;
    group.center = edges[i].u;
    group.edges = {edges[i]};
    groups.push_back(std::move(group));
  }
  return groups;
}

}  // namespace bsr::broker
