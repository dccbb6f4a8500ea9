// Synthetic AS-level Internet topology calibrated to the paper's dataset.
//
// The paper measures a 2014 snapshot: 51,757 ASes + 322 IXPs, 347,332 AS-AS
// connections and 55,282 IXP memberships (Table 2), forming a (0.99, 4)-graph
// where 40.2 % of ASes attach to at least one IXP. That dataset is not
// redistributable, so we generate a topology with the same structural
// fingerprint:
//   * a tier hierarchy (tier-1 clique, multihomed tier-2/3 transit, stubs)
//     built by degree-preferential provider selection -> scale-free tail;
//   * a peering phase adding degree-preferential p2p edges until the AS-AS
//     edge budget is met (the real count includes dense IXP-derived peering);
//   * 322 IXPs with heavy-tailed membership sizes drawn from a bounded
//     Pareto, members sampled degree-preferentially from a participation
//     pool covering ~40 % of ASes.
// Every edge carries a ground-truth business relationship so the Fig. 5b/5c
// policy experiments run against consistent labels.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/fault_plane.hpp"
#include "graph/rng.hpp"
#include "topology/relationships.hpp"
#include "topology/types.hpp"

namespace bsr::topology {

struct InternetConfig {
  std::uint32_t num_ases = 51'757;
  std::uint32_t num_ixps = 322;
  /// Target number of AS-AS edges (hierarchy + peering phases combined).
  std::uint64_t target_as_edges = 347'332;
  /// Target total IXP membership (AS-IXP) edges.
  std::uint64_t target_ixp_memberships = 55'282;
  /// Fraction of ASes eligible to join IXPs (paper: 40.2 %).
  double ixp_participation = 0.402;
  /// Fraction of ASes left outside the giant component. The paper's maximum
  /// connected subgraph holds 51,895 of 52,079 vertices; the 184 stragglers
  /// are what caps saturated connectivity at 99.29 % (= (51895/52079)²).
  double isolated_fraction = 184.0 / 52'079.0;
  /// Probability that a pair of ASes co-located at an IXP realizes a
  /// peering session there (drives the "connections via IXPs" statistic;
  /// calibrated to land near the paper's 292,050).
  double ixp_peering_prob = 0.013;
  /// Fraction of stub ASes in "remote regions": no IXP presence, no dense
  /// peering, single-homed to a uniformly chosen tier-3 provider. They are
  /// the long tail that forces broker sets past ~1,000 members to keep
  /// growing (the paper's 3,540-alliance needed for the last ~14 % of
  /// connectivity).
  double remote_fraction = 0.065;

  double tier1_fraction = 0.0003;   // ~15 tier-1 ASes at full scale
  double tier2_fraction = 0.015;    // regional transit
  double tier3_fraction = 0.10;     // local transit
  // Remaining ASes are stubs.

  /// Type mix for stub ASes (tier 1-3 are always transit/access).
  double stub_content_fraction = 0.12;
  double stub_transit_fraction = 0.08;  // small access networks
  // Remaining stubs are enterprises.

  std::uint64_t seed = 20170614;

  /// Returns a copy with vertex/edge counts scaled by `factor` (>= 1e-4);
  /// keeps minimum viable sizes so tiny scales still produce a connected
  /// hierarchy.
  [[nodiscard]] InternetConfig scaled(double factor) const;

  /// Throws std::invalid_argument if internally inconsistent.
  void validate() const;
};

/// The generated topology. Vertex ids: ASes occupy [0, num_ases), IXPs
/// occupy [num_ases, num_ases + num_ixps).
struct InternetTopology {
  bsr::graph::CsrGraph graph;
  std::vector<NodeMeta> meta;      // size = num_vertices
  EdgeRelations relations;         // aligned with graph
  std::uint32_t num_ases = 0;
  std::uint32_t num_ixps = 0;

  [[nodiscard]] bool is_ixp(bsr::graph::NodeId v) const noexcept {
    return v >= num_ases;
  }
  [[nodiscard]] bsr::graph::NodeId num_vertices() const noexcept {
    return graph.num_vertices();
  }

  /// AS-AS subgraph with IXPs (and their membership edges) removed; vertex
  /// ids are unchanged ("ASes without IXPs" rows of Table 3).
  [[nodiscard]] bsr::graph::CsrGraph as_only_graph() const;

  /// Fraction of ASes with at least one IXP membership edge.
  [[nodiscard]] double ixp_attachment_rate() const;

  /// Same CSR arrays, metadata, slot labels and counts.
  friend bool operator==(const InternetTopology&, const InternetTopology&) = default;
};

/// Generates a topology; deterministic in config.seed.
[[nodiscard]] InternetTopology make_internet(const InternetConfig& config);

/// One failure group per IXP, in ascending IXP id: all of its membership
/// edges at once (graph::incident_group).
[[nodiscard]] std::vector<bsr::graph::FailureGroup> ixp_failure_groups(
    const InternetTopology& topo);

}  // namespace bsr::topology
