// Example: full broker-selection pipeline on the synthetic Internet.
//
// Generates the calibrated 52k-vertex AS/IXP topology (scaled by
// REPRO_SCALE), runs every selection algorithm, and prints the Table-1-style
// comparison — the workflow a network-planning user of this library would
// run on their own topology (convert it to a .topo file with `brokerctl
// import-caida` and load it with topology::load_topology_file).
#include <iostream>

#include "broker/baselines.hpp"
#include "broker/coverage.hpp"
#include "broker/dominated.hpp"
#include "broker/maxsg.hpp"
#include "broker/mcbg_approx.hpp"
#include "io/env.hpp"
#include "io/table.hpp"
#include "topology/internet.hpp"

int main() {
  const auto env = bsr::io::experiment_env();
  auto config = bsr::topology::InternetConfig{}.scaled(std::min(env.scale, 0.2));
  config.seed = env.seed;
  std::cout << "generating topology (" << config.num_ases << " ASes + "
            << config.num_ixps << " IXPs)...\n";
  const auto topo = bsr::topology::make_internet(config);
  const auto& g = topo.graph;

  const std::uint32_t k = std::max<std::uint32_t>(8, g.num_vertices() / 50);
  std::cout << "selecting up to k = " << k << " brokers per algorithm\n";

  bsr::io::Table table({"Algorithm", "|B|", "f(B) share", "saturated connectivity"});
  const auto add_row = [&](const std::string& name,
                           const bsr::broker::BrokerSet& brokers) {
    table.row()
        .cell(name)
        .cell(static_cast<std::uint64_t>(brokers.size()))
        .percent(static_cast<double>(bsr::broker::coverage(g, brokers)) /
                 g.num_vertices())
        .percent(bsr::broker::saturated_connectivity(g, brokers));
  };

  add_row("MaxSG (Algorithm 3)", bsr::broker::maxsg(g, k).brokers);
  bsr::broker::McbgOptions options;
  options.max_roots = 8;
  add_row("MCBG approx (Algorithm 2)", bsr::broker::mcbg_approx(g, k, options).brokers);
  add_row("DB (top degree)", bsr::broker::db_top_degree(g, k));
  add_row("PRB (top PageRank)", bsr::broker::prb_top_pagerank(g, k));
  add_row("IXPB (all IXPs)", bsr::broker::ixpb(topo));
  add_row("Tier1Only", bsr::broker::tier1_only(topo));
  bsr::graph::Rng rng(env.seed);
  add_row("SC (random-order dominating set)", bsr::broker::sc_dominating_set(g, rng));

  table.print(std::cout);
  std::cout << "\nTip: REPRO_SCALE=0.02 ./internet_broker_selection runs a "
               "~1,000-vertex instance in well under a second.\n";
  return 0;
}
