// Latency-plane routing: what the hop-count abstraction hides.
//
// The paper reasons in AS hops; real QoS is milliseconds. This module puts
// a synthetic latency on every edge — tier-dependent (core links are long-
// haul but fast-switched; stub links short) plus jitter — and routes on the
// latency metric with Dijkstra, on both the free and the dominated plane.
// The interesting output: the latency overhead of broker supervision, which
// hop-count stretch under-reports when the dominated detour uses fast core
// links.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "broker/broker_set.hpp"
#include "graph/csr_graph.hpp"
#include "graph/rng.hpp"
#include "topology/internet.hpp"

namespace bsr::sim {

struct LatencyModelConfig {
  /// Base one-way latency (ms) by the *higher* tier of the edge endpoints:
  /// core links (tier-1/2) are long-haul, stub links are metro.
  double core_base_ms = 12.0;
  double transit_base_ms = 6.0;
  double edge_base_ms = 2.0;
  /// Multiplicative jitter: latency *= 1 + U(0, jitter).
  double jitter = 0.5;
};

/// Per-edge latencies aligned with the graph's adjacency slots (same layout
/// trick as EdgeRelations). Deterministic in the rng. Slots are looked up
/// through `topo.graph`, which is held by reference: the topology must
/// outlive the model (as for FaultPlane).
class LatencyModel {
 public:
  LatencyModel(const topology::InternetTopology& topo, const LatencyModelConfig& config,
               bsr::graph::Rng& rng);

  /// Latency of edge (u, v) in ms; symmetric. Throws std::invalid_argument
  /// when u or v is out of range or {u, v} is not an edge.
  [[nodiscard]] double latency(bsr::graph::NodeId u, bsr::graph::NodeId v) const;

  /// Total latency of a path (sum over hops); throws as latency() does on
  /// any hop that is not an edge.
  [[nodiscard]] double path_latency(std::span<const bsr::graph::NodeId> path) const;

 private:
  [[nodiscard]] std::size_t slot(bsr::graph::NodeId u, bsr::graph::NodeId v) const;

  const bsr::graph::CsrGraph* graph_;
  std::vector<double> latency_by_slot_;
};

struct LatencyRoute {
  std::vector<bsr::graph::NodeId> path;
  double latency_ms = 0.0;
  [[nodiscard]] bool reachable() const noexcept { return !path.empty(); }
};

/// Minimum-latency route on the free plane (all edges) or the dominated
/// plane (broker-supervised edges only). Dijkstra, O((V+E) log V).
[[nodiscard]] LatencyRoute route_min_latency(const bsr::graph::CsrGraph& g,
                                             const LatencyModel& model,
                                             bsr::graph::NodeId src,
                                             bsr::graph::NodeId dst,
                                             const bsr::broker::BrokerSet* brokers);

}  // namespace bsr::sim
