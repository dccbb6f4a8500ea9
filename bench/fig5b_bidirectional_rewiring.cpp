// Reproduces Fig. 5b — connectivity recovered by making a fraction of
// inter-broker connections bidirectional.
//
// Paper: under real (directional) business relationships the broker sets
// lose connectivity sharply, but converting only 30 % of inter-broker links
// to bidirectional peering recovers 72.5 % (1,000 brokers) / 84.68 %
// (3,540-alliance) E2E connectivity. We evaluate valley-free reachability
// over the dominated subgraph with a deterministic random subset of
// inter-broker edges exempted from policy.
#include <iostream>

#include "bench_common.hpp"
#include "broker/maxsg.hpp"
#include "graph/sampling.hpp"
#include "io/csv.hpp"
#include "topology/relationships.hpp"

namespace {

using bsr::broker::BrokerSet;
using bsr::graph::NodeId;

/// Fraction of ordered pairs reachable from sampled sources via dominated,
/// policy-compliant (valley-free + overrides) paths.
double policy_connectivity(const bsr::bench::BenchContext& ctx, const BrokerSet& b,
                           double bidirectional_fraction, std::size_t sources,
                           std::uint64_t seed) {
  const auto& g = ctx.topo.graph;
  const auto dominated = [&b](NodeId u, NodeId v) { return b.dominates_edge(u, v); };
  const auto override_edge = [&b, bidirectional_fraction, seed](NodeId u, NodeId v) {
    if (!b.contains(u) || !b.contains(v)) return false;
    if (u > v) std::swap(u, v);
    // Deterministic per-edge coin flip: hash(edge, seed) < fraction.
    std::uint64_t state = seed ^ ((static_cast<std::uint64_t>(u) << 32) | v);
    const double coin =
        static_cast<double>(bsr::graph::splitmix64(state) >> 11) * 0x1.0p-53;
    return coin < bidirectional_fraction;
  };

  bsr::graph::Rng rng(seed + 17);
  const auto source_ids = bsr::graph::sample_distinct(
      rng, g.num_vertices(),
      static_cast<NodeId>(std::min<std::size_t>(sources, g.num_vertices())));
  std::uint64_t reached = 0;
  for (const NodeId src : source_ids) {
    const auto dist = bsr::topology::valley_free_distances(
        g, ctx.topo.relations, src, dominated, override_edge);
    for (NodeId v = 0; v < g.num_vertices(); ++v) {
      if (v != src && dist[v] != bsr::graph::kUnreachable) ++reached;
    }
  }
  return static_cast<double>(reached) /
         (static_cast<double>(source_ids.size()) * (g.num_vertices() - 1));
}

}  // namespace

int main() {
  auto ctx = bsr::bench::make_context(
      "Fig. 5b: connectivity vs bidirectional inter-broker fraction");
  const auto& g = ctx.topo.graph;
  const std::size_t sources = std::min<std::size_t>(ctx.env.bfs_sources, 48);

  const auto k1000 = bsr::broker::maxsg(g, ctx.env.scaled(1000, 8)).brokers;
  const auto alliance = bsr::broker::maxsg(g, ctx.env.scaled(3540, 8)).brokers;
  std::cout << "broker sets: " << k1000.size() << " and " << alliance.size()
            << " members; " << sources << " valley-free BFS sources per point\n";

  bsr::io::Table table({"bidirectional fraction", "1000-broker set",
                        std::to_string(alliance.size()) + "-alliance"});
  bsr::io::CsvWriter csv({"fraction", "set", "connectivity"});
  bsr::bench::Stopwatch sw;
  for (const double f : {0.0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0}) {
    const double small = policy_connectivity(ctx, k1000, f, sources, ctx.env.seed);
    const double large = policy_connectivity(ctx, alliance, f, sources, ctx.env.seed);
    table.row().cell(bsr::io::format_double(f, 2)).percent(small).percent(large);
    csv.add_row({bsr::io::format_double(f, 2), "k1000",
                 bsr::io::format_double(small, 6)});
    csv.add_row({bsr::io::format_double(f, 2), "alliance",
                 bsr::io::format_double(large, 6)});
  }
  table.print(std::cout);
  csv.write_file("fig5b_bidirectional_rewiring.csv");
  std::cout << "done in " << bsr::io::format_double(sw.seconds(), 1)
            << "s; series in fig5b_bidirectional_rewiring.csv\n"
            << "(paper anchors at fraction 0.3: 72.5% for 1,000 brokers, "
               "84.68% for the alliance)\n";
  return 0;
}
