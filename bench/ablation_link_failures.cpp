// Ablation: correlated link failures — IXP outages and graceful degradation.
//
// The broker-failure ablation kills coalition members; this one kills
// *links*. Damage comes from two sources: correlated IXP outages (one IXP
// going dark drops every membership edge at once) and random cuts of
// dominated links — the broker-incident edges the brokered plane actually
// rides on, which is where a fiber cut hurts the service. We fail a growing
// fraction of these failure groups and ask the operator's questions: how
// does dominated connectivity degrade, which service tier (dominated /
// degraded / free-fallback / unreachable) serves each pair under a bounded
// heal budget, and how much does greedy repair on the damaged graph buy
// back? Emits BENCH_link_failures.json (override with BENCH_LINK_FAILURES_JSON)
// in the unified bsr-bench/1 layout, and exits 1 unless both self-checks
// (graceful degradation, repair gains at every point) hold.
#include <algorithm>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_common.hpp"
#include "harness.hpp"
#include "broker/dominated.hpp"
#include "broker/maxsg.hpp"
#include "broker/resilience.hpp"
#include "graph/fault_plane.hpp"
#include "graph/sampling.hpp"
#include "sim/router.hpp"

int main() {
  auto ctx = bsr::bench::make_context("Ablation: correlated link failures");
  const auto& g = ctx.topo.graph;
  bsr::bench::Harness harness("ablation_link_failures", ctx);
  const bsr::graph::NodeId num_ixps = ctx.topo.num_ixps;

  const std::uint32_t k = ctx.env.scaled(1000, 10);
  const auto brokers = bsr::broker::maxsg(g, k).brokers;
  std::cout << "broker set: " << brokers.size() << " members, baseline connectivity "
            << bsr::io::format_percent(bsr::broker::saturated_connectivity(g, brokers))
            << "%\n";

  // One failure group per IXP: all membership edges drop together.
  auto groups = bsr::topology::ixp_failure_groups(ctx.topo);
  // Plus uncorrelated cuts of half the dominated links: singleton groups over
  // the broker-incident edges the brokered plane depends on.
  bsr::graph::Rng rng(ctx.env.seed + 40);
  {
    std::vector<bsr::graph::Edge> dominated_edges;
    for (const bsr::graph::Edge& e : g.edges()) {
      if (brokers.dominates_edge(e.u, e.v)) dominated_edges.push_back(e);
    }
    const auto cuts = static_cast<bsr::graph::NodeId>(dominated_edges.size() / 2);
    const auto picks = bsr::graph::sample_distinct(
        rng, static_cast<bsr::graph::NodeId>(dominated_edges.size()), cuts);
    for (const bsr::graph::NodeId i : picks) {
      bsr::graph::FailureGroup group;
      group.center = dominated_edges[i].u;
      group.edges.push_back(dominated_edges[i]);
      groups.push_back(group);
    }
    std::cout << "failure groups: " << num_ixps << " IXP outages + " << cuts
              << " dominated-link cuts\n";
  }
  // Deterministic outage order.
  std::vector<bsr::graph::NodeId> order(static_cast<bsr::graph::NodeId>(groups.size()));
  for (bsr::graph::NodeId i = 0; i < order.size(); ++i) order[i] = i;
  bsr::graph::shuffle(rng, order);

  const std::uint32_t repair_budget = ctx.env.scaled(50, 5);
  const std::size_t num_pairs = std::max<std::size_t>(ctx.env.bfs_sources, 200);
  // One expedited repair per route: a tight heal budget, so sustained damage
  // visibly spills into the fallback tier instead of being absorbed.
  const bsr::sim::DegradationPolicy policy{.heal_attempts = 1,
                                           .allow_free_fallback = true};

  bsr::graph::FaultPlane plane(g);
  bsr::sim::Router router(g, brokers, &plane);

  bsr::io::Table table({"failed groups", "failed edges", "connectivity",
                        "dominated", "degraded", "fallback", "unreachable",
                        "repaired"});
  std::vector<double> fallback_shares, unreachable_shares;
  std::vector<double> damaged_curve, repaired_curve;
  std::size_t failed = 0;
  for (const double frac : {0.0, 0.1, 0.25, 0.5, 0.75, 1.0}) {
    const auto target = static_cast<std::size_t>(frac * static_cast<double>(groups.size()));
    while (failed < target) plane.fail_group(groups[order[failed++]]);

    double damaged = 0.0, repaired = 0.0;
    bsr::sim::TierShares shares;
    auto& point = harness.run(
        "point.f" + bsr::io::format_percent(frac, 0), [&] {
          damaged = bsr::broker::saturated_connectivity(g, brokers, plane);
          const auto repaired_set =
              bsr::broker::repair_brokers(g, brokers, repair_budget, plane);
          repaired = bsr::broker::saturated_connectivity(g, repaired_set, plane);

          bsr::graph::Rng pair_rng(ctx.env.seed + 41);  // same pairs per point
          shares = bsr::sim::sample_tier_shares(router, pair_rng, num_pairs, policy);
        });
    bsr::bench::Harness::metric(point, "damaged_connectivity", damaged);
    bsr::bench::Harness::metric(point, "repaired_connectivity", repaired);
    bsr::bench::Harness::metric(point, "unreachable_share",
                                shares.fraction(shares.unreachable));

    table.row()
        .cell(std::to_string(failed) + " (" + bsr::io::format_percent(frac, 0) + "%)")
        .cell(plane.num_failed_edges())
        .percent(damaged)
        .percent(shares.fraction(shares.dominated))
        .percent(shares.fraction(shares.degraded))
        .percent(shares.fraction(shares.free_fallback))
        .percent(shares.fraction(shares.unreachable))
        .percent(repaired);
    fallback_shares.push_back(shares.fraction(shares.free_fallback));
    unreachable_shares.push_back(shares.fraction(shares.unreachable));
    damaged_curve.push_back(damaged);
    repaired_curve.push_back(repaired);
  }
  table.print(std::cout);

  // Graceful degradation: fallback absorbs the damage before any pair is
  // truly lost — the fallback share must rise while unreachable holds flat.
  bool fallback_rose_first = fallback_shares.back() > fallback_shares.front();
  for (std::size_t i = 0; i + 1 < fallback_shares.size(); ++i) {
    if (unreachable_shares[i + 1] > unreachable_shares[i] + 1e-12 &&
        fallback_shares[i + 1] <= fallback_shares.front() + 1e-12) {
      fallback_rose_first = false;
    }
  }
  bool repair_always_gains = true;
  for (std::size_t i = 0; i < damaged_curve.size(); ++i) {
    if (repaired_curve[i] <= damaged_curve[i]) repair_always_gains = false;
  }
  std::cout << "graceful degradation (fallback rises before unreachable): "
            << (fallback_rose_first ? "yes" : "NO") << "\n";
  std::cout << "repair beats pre-repair connectivity at every sweep point: "
            << (repair_always_gains ? "yes" : "NO") << "\n";
  std::cout << "(takeaway: link damage shaves the brokered plane edge-first; "
               "pairs slide through the degraded tier to the unsupervised "
               "fallback long before becoming unreachable, and damage-aware "
               "greedy repair claws back part of the dominated coverage)\n";

  harness.metric("failure_groups", static_cast<double>(groups.size()));
  harness.metric("repair_budget", static_cast<double>(repair_budget));
  harness.metric("fallback_rose_first", fallback_rose_first ? 1.0 : 0.0);
  harness.metric("repair_always_gains", repair_always_gains ? 1.0 : 0.0);
  harness.write_json_file("BENCH_link_failures.json", "BENCH_LINK_FAILURES_JSON");
  return (fallback_rose_first && repair_always_gains) ? 0 : 1;
}
