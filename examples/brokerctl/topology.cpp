// Topology commands: gen, import-caida, export-dot, stats <in.topo>, topo.
#include "cli.hpp"
#include "graph/degree_stats.hpp"
#include "graph/renumbering.hpp"
#include "io/dot_export.hpp"
#include "topology/caida_import.hpp"
#include "topology/renumber.hpp"
#include "topology/stats.hpp"

namespace brokerctl {

int cmd_gen(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto env = bsr::io::experiment_env();
  const double scale = argc > 3 ? parse_positive_double("scale", argv[3], 10.0)
                                : std::min(env.scale, 0.05);
  auto config = bsr::topology::InternetConfig{}.scaled(scale);
  config.seed = env.seed;
  const auto topo = bsr::topology::make_internet(config);
  bsr::topology::save_topology_file(argv[2], topo);
  std::cout << "wrote " << argv[2] << ": " << topo.num_ases << " ASes + "
            << topo.num_ixps << " IXPs, " << topo.graph.num_edges() << " edges\n";
  return 0;
}

int cmd_import_caida(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string ixp_path = argc > 4 ? argv[4] : "";
  const auto topo = bsr::topology::import_caida_files(argv[2], ixp_path);
  bsr::topology::save_topology_file(argv[3], topo);
  std::cout << "imported " << topo.num_ases << " ASes + " << topo.num_ixps
            << " IXPs, " << topo.graph.num_edges() << " edges -> " << argv[3]
            << '\n';
  return 0;
}

int cmd_export_dot(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto env = bsr::io::experiment_env();
  const auto topo = bsr::topology::load_topology_file(argv[2]);
  OutputFiles files("export-dot");
  std::ostream* out = files.open(argv[3]);
  BrokerSet brokers(topo.num_vertices());
  if (argc > 4) {
    brokers = bsr::broker::maxsg(topo.graph, parse_u32("k", argv[4])).brokers;
  }
  bsr::graph::Rng rng(env.seed);
  const auto exported = bsr::io::write_dot_sample(
      *out, topo, brokers.empty() ? nullptr : &brokers, 150, 600, rng);
  std::cout << "wrote " << exported << "-vertex sample to " << argv[3]
            << " (render: sfdp -Tsvg " << argv[3] << " -o out.svg)\n";
  return files.close(0);
}

// Legacy `stats <in.topo>` form: Table-2-style dataset summary.
int cmd_dataset_stats(const std::string& path) {
  const auto env = bsr::io::experiment_env();
  const auto topo = bsr::topology::load_topology_file(path);
  const auto summary = bsr::topology::summarize(topo, env.bfs_sources, env.seed);
  bsr::io::Table table({"statistic", "value"});
  table.row().cell("ASes").cell(std::uint64_t{summary.num_ases});
  table.row().cell("IXPs").cell(std::uint64_t{summary.num_ixps});
  table.row().cell("AS-AS edges").cell(summary.as_as_edges);
  table.row().cell("IXP memberships").cell(summary.ixp_memberships);
  table.row().cell("largest component").cell(std::uint64_t{summary.largest_component});
  table.row().cell("IXP attachment rate").percent(summary.ixp_attachment_rate);
  table.row().cell("Prob[d <= 4]").percent(summary.alpha_within_beta);
  table.print(std::cout);
  return 0;
}

// Topology inspector: generate the calibrated synthetic Internet at the
// requested scale and print the numbers an operator sizes a deployment by —
// vertex/edge counts, the degree profile, and the memory-locality metrics
// the renumbering pass targets (average neighbor-id gap before/after).
int cmd_topo(int argc, char** argv) {
  const auto env = bsr::io::experiment_env();
  const Args args = parse_args(argc, argv, 2, {"scale"});
  if (!args.operands.empty()) return usage();
  const double scale =
      args.has("scale")
          ? parse_positive_double("scale", args.value("scale"), 10.0)
          : env.scale;

  auto config = bsr::topology::InternetConfig{}.scaled(scale);
  config.seed = env.seed;
  const auto topo = bsr::topology::make_internet(config);
  const auto& g = topo.graph;
  const auto degrees = bsr::graph::compute_degree_stats(g);
  const auto renumbered = bsr::topology::renumber_topology(topo);
  const double gap_before = bsr::graph::average_neighbor_gap(g);
  const double gap_after =
      bsr::graph::average_neighbor_gap(renumbered.topo.graph);

  bsr::io::Table table({"metric", "value"});
  table.row().cell("scale").cell(scale, 4);
  table.row().cell("ASes").cell(std::uint64_t{topo.num_ases});
  table.row().cell("IXPs").cell(std::uint64_t{topo.num_ixps});
  table.row().cell("vertices").cell(std::uint64_t{g.num_vertices()});
  table.row().cell("edges").cell(g.num_edges());
  table.row().cell("degree min / max").cell(std::to_string(degrees.min) + " / " +
                                            std::to_string(degrees.max));
  table.row().cell("degree mean").cell(degrees.mean, 2);
  table.row().cell("degree median").cell(degrees.median, 1);
  table.row().cell("degree p90 / p99").cell(
      bsr::io::format_double(degrees.p90, 1) + " / " +
      bsr::io::format_double(degrees.p99, 1));
  if (degrees.power_law_alpha > 0.0) {
    table.row().cell("power-law alpha").cell(degrees.power_law_alpha, 2);
  }
  table.row().cell("avg neighbor gap").cell(gap_before, 1);
  table.row().cell("avg neighbor gap (renumbered)").cell(gap_after, 1);
  table.row().cell("gap reduction").percent(
      gap_before > 0.0 ? 1.0 - gap_after / gap_before : 0.0);
  table.print(std::cout);
  return 0;
}

}  // namespace brokerctl
