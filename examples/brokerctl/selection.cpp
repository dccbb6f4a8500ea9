// Selection commands: select, eval, faults, robust.
#include "broker/coverage.hpp"
#include "broker/disjoint.hpp"
#include "broker/dominated.hpp"
#include "broker/resilience.hpp"
#include "broker/robust.hpp"
#include "cli.hpp"
#include "graph/sampling.hpp"
#include "sim/router.hpp"

namespace brokerctl {

int cmd_select(int argc, char** argv, bool full_eval) {
  if (argc < 5) return usage();
  const auto env = bsr::io::experiment_env();
  const auto topo = bsr::topology::load_topology_file(argv[2]);
  const auto k = parse_u32("k", argv[4]);
  const BrokerSet brokers = run_algorithm(topo, argv[3], k, env.seed);

  bsr::io::Table table({"metric", "value"});
  table.row().cell("brokers").cell(static_cast<std::uint64_t>(brokers.size()));
  table.row()
      .cell("coverage f(B)")
      .cell(std::uint64_t{bsr::broker::coverage(topo.graph, brokers)});
  table.row()
      .cell("saturated connectivity")
      .percent(bsr::broker::saturated_connectivity(topo.graph, brokers));
  if (full_eval) {
    bsr::graph::Rng rng(env.seed + 1);
    const auto cdf = bsr::broker::dominated_distance_cdf(
        topo.graph, brokers, rng,
        std::min<std::size_t>(env.bfs_sources, topo.graph.num_vertices()));
    table.row().cell("4-hop connectivity").percent(cdf.at(4));
    bsr::graph::Rng rng2(env.seed + 2);
    const auto diversity =
        bsr::broker::path_diversity(topo.graph, brokers, rng2, 500);
    table.row().cell("pairs with backup dominating path").percent(diversity.with_two);
    const auto share =
        bsr::broker::broker_only_share(topo.graph, brokers, rng2, 2000);
    table.row().cell("broker-only connections").percent(share.broker_only);
  }
  table.print(std::cout);
  // Selection order on stdout-adjacent channel: first 20 members.
  std::cout << "first members:";
  for (std::size_t i = 0; i < std::min<std::size_t>(20, brokers.size()); ++i) {
    std::cout << ' ' << brokers.members()[i];
  }
  std::cout << (brokers.size() > 20 ? " ...\n" : "\n");
  return 0;
}

// Correlated IXP-outage sweep: fail growing fractions of the IXPs (every
// membership edge of a failed IXP drops at once), report the degradation
// tier mix under a bounded heal budget, and the connectivity recovered by
// greedy repair on the damaged graph.
int cmd_faults(int argc, char** argv) {
  if (argc < 5) return usage();
  const auto env = bsr::io::experiment_env();
  const auto topo = bsr::topology::load_topology_file(argv[2]);
  const auto& g = topo.graph;
  const auto k = parse_u32("k", argv[4]);
  const double max_frac =
      argc > 5 ? parse_positive_double("max-failed-ixp-frac", argv[5], 1.0) : 0.5;
  const BrokerSet brokers = run_algorithm(topo, argv[3], k, env.seed);

  if (topo.num_ixps == 0) {
    std::cerr << "brokerctl faults: topology has no IXPs to fail\n";
    return 1;
  }
  const auto groups = bsr::topology::ixp_failure_groups(topo);
  bsr::graph::Rng rng(env.seed + 50);
  std::vector<bsr::graph::NodeId> order(groups.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<bsr::graph::NodeId>(i);
  }
  bsr::graph::shuffle(rng, order);

  const std::uint32_t repair_budget = std::max<std::uint32_t>(k / 20, 2);
  const bsr::sim::DegradationPolicy policy;
  bsr::graph::FaultPlane plane(g);
  bsr::sim::Router router(g, brokers, &plane);

  std::cout << "broker set: " << brokers.size() << " members; heal budget "
            << policy.heal_attempts << " links/route; repair budget "
            << repair_budget << " brokers\n";
  bsr::io::Table table({"failed IXPs", "failed edges", "connectivity",
                        "dominated", "degraded", "fallback", "unreachable",
                        "repaired"});
  std::size_t failed = 0;
  for (const double frac : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const auto target = std::min(
        static_cast<std::size_t>(frac * max_frac * static_cast<double>(groups.size())),
        groups.size());
    while (failed < target) plane.fail_group(groups[order[failed++]]);

    const double damaged = bsr::broker::saturated_connectivity(g, brokers, plane);
    const auto repaired_set =
        bsr::broker::repair_brokers(g, brokers, repair_budget, plane);
    const double repaired =
        bsr::broker::saturated_connectivity(g, repaired_set, plane);
    bsr::graph::Rng pair_rng(env.seed + 51);
    const auto shares = bsr::sim::sample_tier_shares(
        router, pair_rng, std::max<std::size_t>(env.bfs_sources, 200), policy);

    table.row()
        .cell(std::to_string(failed))
        .cell(plane.num_failed_edges())
        .percent(damaged)
        .percent(shares.fraction(shares.dominated))
        .percent(shares.fraction(shares.degraded))
        .percent(shares.fraction(shares.free_fallback))
        .percent(shares.fraction(shares.unreachable))
        .percent(repaired);
  }
  table.print(std::cout);
  return 0;
}

// Proactive-vs-reactive comparison: plain MaxSG and the r-redundant
// selection at the same budget, scored by the worst case the adversary can
// inflict — any r broker failures, or (with --groups) any single IXP outage.
int cmd_robust(int argc, char** argv) {
  const Args args = parse_args(argc, argv, 2, {}, {"groups"});
  if (args.operands.size() < 2 || args.operands.size() > 3) return usage();
  const bool group_mode = args.has("groups");
  const auto topo = bsr::topology::load_topology_file(args.operands[0]);
  const auto& g = topo.graph;
  const auto k = parse_u32("k", args.operands[1]);
  const std::uint32_t r =
      args.operands.size() > 2 ? parse_u32("r", args.operands[2]) : 1;

  std::vector<bsr::graph::FailureGroup> groups;
  if (group_mode) {
    if (topo.num_ixps == 0) {
      std::cerr << "brokerctl robust: topology has no IXPs to fail\n";
      return 1;
    }
    groups = bsr::topology::ixp_failure_groups(topo);
  }

  bsr::broker::RobustOptions options;
  if (group_mode) {
    options.mode = bsr::broker::RobustMode::kFailureGroups;
    options.groups = groups;
  } else {
    options.redundancy = r;
  }

  const BrokerSet plain = bsr::broker::maxsg(g, k).brokers;
  const auto robust = bsr::broker::robust_maxsg(g, k, options);

  const auto worst_of = [&](const BrokerSet& b) {
    return group_mode
               ? bsr::broker::worst_case_surviving_pairs(
                     g, b, std::span<const bsr::graph::FailureGroup>(groups))
               : bsr::broker::worst_case_surviving_pairs(g, b, r);
  };
  const double total_pairs =
      static_cast<double>(g.num_vertices()) *
      static_cast<double>(g.num_vertices() - 1) / 2.0;
  const std::uint64_t plain_worst = worst_of(plain);
  const std::uint64_t robust_worst = worst_of(robust.brokers);

  std::cout << "adversary: "
            << (group_mode ? "any single IXP outage"
                           : "any " + std::to_string(r) + " broker failure(s)")
            << "\n";
  bsr::io::Table table(
      {"selection", "members", "coverage", "nominal conn", "surviving conn"});
  table.row()
      .cell("maxsg (plain)")
      .cell(static_cast<std::uint64_t>(plain.size()))
      .cell(std::uint64_t{bsr::broker::coverage(g, plain)})
      .percent(bsr::broker::saturated_connectivity(g, plain))
      .percent(static_cast<double>(plain_worst) / total_pairs);
  table.row()
      .cell(group_mode ? "robust (groups)" : "robust (r=" + std::to_string(r) + ")")
      .cell(static_cast<std::uint64_t>(robust.brokers.size()))
      .cell(std::uint64_t{robust.coverage})
      .percent(bsr::broker::saturated_connectivity(g, robust.brokers))
      .percent(static_cast<double>(robust_worst) / total_pairs);
  table.print(std::cout);
  std::cout << "robust surviving pairs " << robust_worst << " vs plain "
            << plain_worst << " ("
            << (robust_worst >= plain_worst ? "no worse" : "WORSE")
            << " under this adversary)\n";
  return 0;
}

}  // namespace brokerctl
