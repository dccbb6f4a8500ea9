// Reproduces Fig. 5c — broker-set performance under real business
// relationships (directional routing policy) vs the bidirectional assumption.
//
// Paper: forcing ASes/IXPs to obey existing relationships (valley-free
// forwarding) sharply decreases E2E connectivity across all broker-set
// sizes.
#include <iostream>

#include "bench_common.hpp"
#include "broker/maxsg.hpp"
#include "graph/engine.hpp"
#include "graph/sampling.hpp"
#include "io/csv.hpp"
#include "topology/relationships.hpp"

namespace {

using bsr::broker::BrokerSet;
using bsr::graph::NodeId;

struct Connectivities {
  double bidirectional = 0.0;  // dominated reachability, no policy
  double directional = 0.0;    // dominated + valley-free policy
};

Connectivities measure(const bsr::bench::BenchContext& ctx, const BrokerSet& b,
                       std::size_t sources, std::uint64_t seed) {
  const auto& g = ctx.topo.graph;
  const auto dominated = [&b](NodeId u, NodeId v) { return b.dominates_edge(u, v); };
  bsr::graph::Rng rng(seed);
  const auto source_ids = bsr::graph::sample_distinct(
      rng, g.num_vertices(),
      static_cast<NodeId>(std::min<std::size_t>(sources, g.num_vertices())));

  auto& ws = bsr::graph::engine::tls_workspace();
  std::uint64_t free_reach = 0, policy_reach = 0;
  for (const NodeId src : source_ids) {
    bsr::graph::engine::bfs(g, src, ws,
                            bsr::graph::engine::DominatedEdgeFilter{&b.mask()});
    free_reach += ws.visit_order().size() - 1;  // every vertex reached but src
    const auto policy_dist = bsr::topology::valley_free_distances(
        g, ctx.topo.relations, src, dominated, {});
    for (NodeId v = 0; v < g.num_vertices(); ++v) {
      if (v != src && policy_dist[v] != bsr::graph::kUnreachable) ++policy_reach;
    }
  }
  const double denom =
      static_cast<double>(source_ids.size()) * (g.num_vertices() - 1);
  return {static_cast<double>(free_reach) / denom,
          static_cast<double>(policy_reach) / denom};
}

}  // namespace

int main() {
  auto ctx = bsr::bench::make_context(
      "Fig. 5c: directional (valley-free) vs bidirectional routing");
  const auto& g = ctx.topo.graph;
  const std::size_t sources = std::min<std::size_t>(ctx.env.bfs_sources, 48);

  // One MaxSG run at the largest budget; evaluate selection-order prefixes.
  const auto full = bsr::broker::maxsg(g, ctx.env.scaled(3540, 8)).brokers;

  bsr::io::Table table({"|B| (MaxSG prefix)", "bidirectional", "directional",
                        "retained"});
  bsr::io::CsvWriter csv({"k", "policy", "connectivity"});
  for (const std::uint32_t paper_k : {100u, 500u, 1000u, 2000u, 3540u}) {
    const auto k = std::min<std::size_t>(ctx.env.scaled(paper_k, 4), full.size());
    const auto prefix = full.prefix(k);
    const auto conn = measure(ctx, prefix, sources, ctx.env.seed + paper_k);
    table.row()
        .cell(static_cast<std::uint64_t>(prefix.size()))
        .percent(conn.bidirectional)
        .percent(conn.directional)
        .percent(conn.bidirectional > 0 ? conn.directional / conn.bidirectional : 0);
    csv.add_row({std::to_string(prefix.size()), "bidirectional",
                 bsr::io::format_double(conn.bidirectional, 6)});
    csv.add_row({std::to_string(prefix.size()), "directional",
                 bsr::io::format_double(conn.directional, 6)});
  }
  table.print(std::cout);
  csv.write_file("fig5c_business_relationships.csv");
  std::cout << "series in fig5c_business_relationships.csv\n"
            << "(paper: a sharp connectivity decrease when routing must obey "
               "business relationships, at every broker-set size)\n";
  return 0;
}
