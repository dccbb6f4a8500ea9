// Reference implementations of the three product-state searches, for
// differential tests against the engine's product_bfs.
//
// They are the library's searches as they stood before product_bfs: each
// with its own queue and its own per-call distance or parent array. The
// valley-free pair is verbatim; the heal-budget search is Router's former
// private member, its members turned into parameters and locals. None of
// them shares a line with the code under test, so "equal answers" checks
// the kernel's visit order, its target stop and each step rule.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "broker/broker_set.hpp"
#include "graph/check.hpp"
#include "graph/csr_graph.hpp"
#include "graph/fault_plane.hpp"
#include "sim/router.hpp"
#include "topology/relationships.hpp"

namespace bsr::test::reference {

using bsr::broker::BrokerSet;
using bsr::graph::CsrGraph;
using bsr::graph::FaultPlane;
using bsr::graph::kUnreachable;
using bsr::graph::NodeId;
using bsr::sim::Route;
using bsr::topology::EdgeOverrideFn;
using bsr::topology::EdgeRel;
using bsr::topology::EdgeRelations;

inline std::vector<std::uint32_t> valley_free_distances(
    const CsrGraph& g, const EdgeRelations& rels, NodeId source,
    const std::function<bool(NodeId, NodeId)>& edge_ok,
    const EdgeOverrideFn& override_edge) {
  if (source >= g.num_vertices()) {
    throw std::invalid_argument("valley_free_distances: source out of range");
  }
  // State-expanded BFS. Phases of a valley-free walk:
  //   0 = still climbing (only c2p hops so far)
  //   1 = crossed the single allowed peer hop
  //   2 = descending (one or more p2c hops taken)
  // Allowed transitions from phase p over edge u->v:
  //   c2p (v is u's provider): only from phase 0, stay 0
  //   peer:                    from phase 0, go to 1
  //   p2c (v is u's customer): from any phase, go to 2
  //   override edge:           from any phase, keep phase
  constexpr int kPhases = 3;
  const NodeId n = g.num_vertices();
  std::vector<std::uint32_t> dist_state(static_cast<std::size_t>(n) * kPhases,
                                        kUnreachable);
  std::vector<std::uint32_t> dist(n, kUnreachable);
  std::vector<std::uint64_t> queue;  // encoded state: v * kPhases + phase
  queue.reserve(n);

  const auto push = [&](NodeId v, int phase, std::uint32_t d) {
    const std::size_t idx = static_cast<std::size_t>(v) * kPhases + phase;
    if (dist_state[idx] != kUnreachable) return;
    dist_state[idx] = d;
    dist[v] = std::min(dist[v], d);
    queue.push_back(idx);
  };

  push(source, 0, 0);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint64_t state = queue[head];
    const auto u = static_cast<NodeId>(state / kPhases);
    const int phase = static_cast<int>(state % kPhases);
    const std::uint32_t du = dist_state[state];
    const auto nbrs = g.neighbors(u);
    const auto rel_row = rels.canonical_rels_of(u);  // slot-aligned: O(1)/edge
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const NodeId v = nbrs[i];
      if (edge_ok && !edge_ok(u, v)) continue;
      if (override_edge && override_edge(u, v)) {
        push(v, phase, du + 1);
        continue;
      }
      const EdgeRel rel = rel_row[i];
      if (rel == EdgeRel::kPeer) {
        if (phase == 0) push(v, 1, du + 1);
      } else if (EdgeRelations::rel_means_v_provides_u(rel, u, v)) {
        if (phase == 0) push(v, 0, du + 1);
      } else {
        push(v, 2, du + 1);  // p2c hop allowed from any phase
      }
    }
  }
  return dist;
}

inline std::vector<NodeId> valley_free_path(const CsrGraph& g, const EdgeRelations& rels,
                                            NodeId src, NodeId dst) {
  if (src >= g.num_vertices() || dst >= g.num_vertices()) return {};
  if (src == dst) return {src};

  constexpr int kPhases = 3;
  const std::size_t states = static_cast<std::size_t>(g.num_vertices()) * kPhases;
  constexpr std::uint64_t kNoParent = ~0ull;
  std::vector<std::uint64_t> parent(states, kNoParent);
  std::vector<std::uint64_t> queue;

  const auto push = [&](NodeId v, int phase, std::uint64_t from_state) {
    const std::size_t idx = static_cast<std::size_t>(v) * kPhases + phase;
    if (parent[idx] != kNoParent) return;
    parent[idx] = from_state;
    queue.push_back(idx);
  };

  const std::size_t start = static_cast<std::size_t>(src) * kPhases;
  parent[start] = start;  // self-parent marks the root
  queue.push_back(start);
  std::size_t goal_state = kNoParent;
  for (std::size_t head = 0; head < queue.size() && goal_state == kNoParent; ++head) {
    const std::uint64_t state = queue[head];
    const auto u = static_cast<NodeId>(state / kPhases);
    const int phase = static_cast<int>(state % kPhases);
    const auto nbrs = g.neighbors(u);
    const auto rel_row = rels.canonical_rels_of(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const NodeId v = nbrs[i];
      const EdgeRel rel = rel_row[i];
      if (rel == EdgeRel::kPeer) {
        if (phase == 0) push(v, 1, state);
      } else if (EdgeRelations::rel_means_v_provides_u(rel, u, v)) {
        if (phase == 0) push(v, 0, state);
      } else {
        push(v, 2, state);
      }
      if (v == dst) {
        // First time dst enters the queue is a shortest admissible path.
        for (int p = 0; p < kPhases; ++p) {
          const std::size_t idx = static_cast<std::size_t>(dst) * kPhases + p;
          if (parent[idx] != kNoParent) {
            goal_state = idx;
            break;
          }
        }
        if (goal_state != kNoParent) break;
      }
    }
  }
  if (goal_state == kNoParent) return {};

  std::vector<NodeId> path;
  std::uint64_t state = goal_state;
  while (true) {
    path.push_back(static_cast<NodeId>(state / kPhases));
    const std::uint64_t up = parent[state];
    if (up == state) break;  // root
    state = up;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

/// The kDegraded tier's search: the min-hop dominated route from src to dst
/// over up vertices that crosses at most max_heals failed links, and in
/// healed_links how many it crosses.
inline Route route_healed(const CsrGraph& g, const BrokerSet& b, const FaultPlane& faults,
                          NodeId src, NodeId dst, std::uint32_t max_heals,
                          std::uint32_t& healed_links) {
  const CsrGraph* graph_ = &g;
  const BrokerSet* brokers_ = &b;
  const FaultPlane* faults_ = &faults;
  std::vector<std::uint32_t> state_parent_;
  std::vector<std::uint32_t> state_queue_;
  // BFS over (vertex, heals-used) states: dominated edges only, vertices
  // must be up, and crossing a *failed* dominated link consumes one heal.
  // First arrival at dst (any heal count) is the min-hop degraded route.
  healed_links = 0;
  Route route;
  const std::uint32_t layers = max_heals + 1;
  const std::size_t num_states =
      static_cast<std::size_t>(graph_->num_vertices()) * layers;
  BSR_DCHECK(num_states < kUnreachable);
  state_parent_.assign(num_states, kUnreachable);
  state_queue_.clear();

  const auto state_of = [layers](NodeId v, std::uint32_t heals) {
    return static_cast<std::uint32_t>(v) * layers + heals;
  };
  const std::uint32_t start = state_of(src, 0);
  state_parent_[start] = start;
  state_queue_.push_back(start);
  for (std::size_t head = 0; head < state_queue_.size(); ++head) {
    const std::uint32_t s = state_queue_[head];
    const NodeId u = s / layers;
    const std::uint32_t heals = s % layers;
    const auto nbrs = graph_->neighbors(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const NodeId v = nbrs[i];
      if (!brokers_->dominates_edge(u, v)) continue;
      if (!faults_->vertex_ok(v)) continue;
      std::uint32_t next_heals = heals;
      if (!faults_->edge_up_at(u, i)) {
        if (heals == max_heals) continue;  // heal budget exhausted
        ++next_heals;
      }
      const std::uint32_t t = state_of(v, next_heals);
      if (state_parent_[t] != kUnreachable) continue;
      state_parent_[t] = s;
      if (v == dst) {
        healed_links = next_heals;
        for (std::uint32_t w = t; w != start; w = state_parent_[w]) {
          route.path.push_back(w / layers);
        }
        route.path.push_back(src);
        std::reverse(route.path.begin(), route.path.end());
        return route;
      }
      state_queue_.push_back(t);
    }
  }
  return route;  // unreachable within the heal budget
}

}  // namespace bsr::test::reference
