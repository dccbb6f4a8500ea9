#include "broker/robust.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "broker/coverage.hpp"
#include "broker/maxsg.hpp"
#include "broker/verify.hpp"
#include "graph/engine.hpp"
#include "graph/fault_plane.hpp"
#include "graph/graph_builder.hpp"
#include "graph/rng.hpp"
#include "graph/rollback_union_find.hpp"
#include "test_util.hpp"
#include "topology/internet.hpp"

namespace bsr::broker {
namespace {

using bsr::graph::CsrGraph;
using bsr::graph::FailureGroup;
using bsr::graph::GraphBuilder;
using bsr::graph::NodeId;
using bsr::graph::RollbackUnionFind;
using bsr::test::make_connected_random;
using bsr::test::make_cycle;
using bsr::test::make_star;

std::vector<FailureGroup> incident_groups(const CsrGraph& g,
                                          std::initializer_list<NodeId> centers) {
  std::vector<FailureGroup> groups;
  for (const NodeId v : centers) groups.push_back(bsr::graph::incident_group(g, v));
  return groups;
}

// --- incremental evaluator vs brute-force DFS ------------------------------

TEST(WorstCaseSurviving, MatchesBruteForceOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const CsrGraph g = make_connected_random(12, 0.25, seed);
    const auto b = maxsg(g, 5).brokers;
    for (const std::uint32_t r : {1u, 2u}) {
      EXPECT_EQ(worst_case_surviving_pairs(g, b, r),
                brute_force_surviving_pairs(g, b, r))
          << "seed=" << seed << " r=" << r;
    }
  }
}

TEST(WorstCaseSurviving, GroupOverloadMatchesBruteForce) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const CsrGraph g = make_connected_random(14, 0.2, seed);
    const auto b = maxsg(g, 5).brokers;
    const auto groups = incident_groups(g, {0, 3, 7, 11});
    EXPECT_EQ(worst_case_surviving_pairs(
                  g, b, std::span<const FailureGroup>(groups)),
              brute_force_group_surviving_pairs(g, b, groups))
        << "seed=" << seed;
  }
}

TEST(WorstCaseSurviving, ZeroWhenAdversaryCanEraseTheSet) {
  const CsrGraph g = make_star(8);
  BrokerSet b(8);
  b.add(0);
  // |B| <= r: every scenario removes the whole set, nothing survives.
  EXPECT_EQ(worst_case_surviving_pairs(g, b, 1), 0u);
  EXPECT_EQ(brute_force_surviving_pairs(g, b, 1), 0u);
}

TEST(WorstCaseSurviving, StarHubIsASinglePointOfFailure) {
  // Brokers {hub, leaf}: killing the hub leaves the leaf's star = its own
  // adjacency {leaf, 0-edge...}; killing the leaf keeps the full star. The
  // worst case is the hub death: G_{leaf} covers edge {0, leaf} only -> 1 pair.
  const CsrGraph g = make_star(6);
  BrokerSet b(6);
  b.add(0);
  b.add(1);
  EXPECT_EQ(worst_case_surviving_pairs(g, b, 1), 1u);
  EXPECT_EQ(brute_force_surviving_pairs(g, b, 1), 1u);
}

// --- greedy selection -------------------------------------------------------

TEST(RobustMaxsg, ReportedSurvivalIsExactOnTinyGraphs) {
  // The r-survivability claim of the greedy output is confirmed by the
  // independent exhaustive checker for r in {1, 2} and in group mode.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const CsrGraph g = make_connected_random(12, 0.25, seed);
    for (const std::uint32_t r : {1u, 2u}) {
      RobustOptions opts;
      opts.redundancy = r;
      const auto result = robust_maxsg(g, 5, opts);
      EXPECT_LE(result.brokers.size(), 5u);
      EXPECT_EQ(result.surviving_pairs,
                brute_force_surviving_pairs(g, result.brokers, r))
          << "seed=" << seed << " r=" << r;
      ASSERT_EQ(result.surviving_curve.size(), result.brokers.size());
      EXPECT_EQ(result.surviving_curve.back(), result.surviving_pairs);
    }
  }
}

TEST(RobustMaxsg, GroupModeReportedSurvivalIsExact) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const CsrGraph g = make_connected_random(14, 0.2, seed);
    const auto groups = incident_groups(g, {1, 4, 9});
    RobustOptions opts;
    opts.mode = RobustMode::kFailureGroups;
    opts.groups = groups;
    const auto result = robust_maxsg(g, 4, opts);
    EXPECT_EQ(result.surviving_pairs,
              brute_force_group_surviving_pairs(g, result.brokers, groups))
        << "seed=" << seed;
  }
}

TEST(RobustMaxsg, SurvivingCurveIsNonDecreasing) {
  // Adding a broker can only help: every failure scenario of the larger set
  // dominates a scenario of the smaller one.
  const CsrGraph g = make_connected_random(60, 0.08, 7);
  RobustOptions opts;
  opts.redundancy = 2;
  const auto result = robust_maxsg(g, 10, opts);
  for (std::size_t i = 1; i < result.surviving_curve.size(); ++i) {
    EXPECT_GE(result.surviving_curve[i], result.surviving_curve[i - 1]);
  }
  EXPECT_LE(result.surviving_pairs, result.nominal_pairs);
}

TEST(RobustMaxsg, BeatsPlainGreedyOnTheSurvivingObjective) {
  // The whole point of the criterion: the robust set's worst case is never
  // below the plain set's worst case on the same budget (both are checked
  // against the same exact evaluator, so this is a real dominance claim).
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const CsrGraph g = make_connected_random(40, 0.1, seed);
    const auto plain = maxsg(g, 4).brokers;
    RobustOptions opts;
    opts.redundancy = 1;
    const auto robust = robust_maxsg(g, 4, opts);
    EXPECT_GE(robust.surviving_pairs, worst_case_surviving_pairs(g, plain, 1))
        << "seed=" << seed;
  }
}

TEST(RobustMaxsg, PinnedGreedySuboptimalityInstance) {
  // The note paper's caveat (PAPERS.md): greedy redundancy loses the
  // set-cover guarantee because the surviving objective is not submodular.
  // On this 6-vertex graph with k=3, r=1 the greedy's first pick (the hub 3,
  // best worst-case alone) locks it out of the optimum {1, 2, x}-style
  // configurations found by exhaustive search: 2 surviving pairs vs 3.
  GraphBuilder builder(6);
  builder.add_edge(0, 3);
  builder.add_edge(1, 2);
  builder.add_edge(3, 4);
  builder.add_edge(3, 5);
  const CsrGraph g = builder.build();
  RobustOptions opts;
  opts.redundancy = 1;
  const auto greedy = robust_maxsg(g, 3, opts);
  const auto optimum = brute_force_robust_optimum(g, 3, 1);
  EXPECT_EQ(greedy.surviving_pairs, 2u);
  EXPECT_EQ(optimum, 3u);
  EXPECT_LT(greedy.surviving_pairs, optimum);
}

TEST(RobustMaxsg, GroupModeAvoidsTheCorrelatedTrap) {
  // Two stars joined by a bridge; every edge of hub A's star belongs to one
  // correlated group (the "IXP outage"). A selection that leans only on hub A
  // loses everything when the group fires — group mode must keep worst-case
  // coverage strictly positive if any budget-2 set can.
  GraphBuilder builder(8);
  for (NodeId v = 1; v <= 3; ++v) builder.add_edge(0, v);  // star A
  for (NodeId v = 5; v <= 7; ++v) builder.add_edge(4, v);  // star B
  builder.add_edge(3, 5);                                  // bridge
  const CsrGraph g = builder.build();
  std::vector<FailureGroup> groups;
  groups.push_back(bsr::graph::incident_group(g, 0));
  RobustOptions opts;
  opts.mode = RobustMode::kFailureGroups;
  opts.groups = groups;
  const auto result = robust_maxsg(g, 2, opts);
  EXPECT_GT(result.surviving_pairs, 0u);
  EXPECT_EQ(result.surviving_pairs,
            brute_force_group_surviving_pairs(g, result.brokers, groups));
}

TEST(RobustMaxsg, DeterministicAcrossThreadCounts) {
  const CsrGraph g = make_connected_random(150, 0.04, 11);
  const auto groups = incident_groups(g, {0, 5, 10, 15, 20});
  const int saved = bsr::graph::engine::num_threads();
  const auto run_both_modes = [&] {
    RobustOptions broker_opts;
    broker_opts.redundancy = 2;
    RobustOptions group_opts;
    group_opts.mode = RobustMode::kFailureGroups;
    group_opts.groups = groups;
    return std::pair{robust_maxsg(g, 8, broker_opts),
                     robust_maxsg(g, 8, group_opts)};
  };
  bsr::graph::engine::set_num_threads(1);
  const auto serial = run_both_modes();
  bsr::graph::engine::set_num_threads(4);
  const auto parallel = run_both_modes();
  bsr::graph::engine::set_num_threads(saved);
  EXPECT_TRUE(std::ranges::equal(serial.first.brokers.members(),
                                 parallel.first.brokers.members()));
  EXPECT_EQ(serial.first.surviving_curve, parallel.first.surviving_curve);
  EXPECT_EQ(serial.first.surviving_pairs, parallel.first.surviving_pairs);
  EXPECT_TRUE(std::ranges::equal(serial.second.brokers.members(),
                                 parallel.second.brokers.members()));
  EXPECT_EQ(serial.second.surviving_curve, parallel.second.surviving_curve);
}

// --- full-sweep reference -----------------------------------------------------

namespace reference {

namespace engine = bsr::graph::engine;

constexpr std::uint64_t kNoPairs = std::numeric_limits<std::uint64_t>::max();

inline std::uint64_t choose2(std::uint64_t s) noexcept { return s * (s - 1) / 2; }

template <class Visit>
void enumerate_exclusions(const CsrGraph& g, RollbackUnionFind& uf,
                          std::span<const NodeId> members, std::size_t idx,
                          std::size_t excl, const Visit& visit) {
  if (excl == 0) {
    const RollbackUnionFind::Checkpoint mark = uf.checkpoint();
    for (std::size_t i = idx; i < members.size(); ++i) {
      engine::unite_star(g, uf, members[i], engine::AllEdges{});
    }
    visit();
    uf.rollback(mark);
    return;
  }
  if (members.size() - idx == excl) {
    visit();  // everything left is excluded
    return;
  }
  enumerate_exclusions(g, uf, members, idx + 1, excl - 1, visit);
  const RollbackUnionFind::Checkpoint mark = uf.checkpoint();
  engine::unite_star(g, uf, members[idx], engine::AllEdges{});
  enumerate_exclusions(g, uf, members, idx + 1, excl, visit);
  uf.rollback(mark);
}

/// The full-graph sweep robust_maxsg used before the covered-set
/// compaction: every scenario refreshes the root and size of all n vertices
/// and scores every candidate over its whole adjacency through `admit`.
class CandidateSweeper {
 public:
  explicit CandidateSweeper(const CsrGraph& g)
      : g_(g), root_of_(g.num_vertices()), size_of_(g.num_vertices()) {
    const std::size_t shards = engine::plan_shards(g.num_vertices());
    stamps_.assign(shards, std::vector<std::uint32_t>(g.num_vertices(), 0));
    epochs_.assign(shards, 0);
  }

  template <class Filter>
  void sweep(const RollbackUnionFind& uf, const std::vector<bool>& is_broker,
             Filter admit, bool take_min, std::vector<std::uint64_t>& target) {
    const NodeId n = g_.num_vertices();
    engine::for_each_shard(n, [&](std::size_t, std::size_t begin, std::size_t end) {
      for (std::size_t v = begin; v < end; ++v) {
        root_of_[v] = uf.find(static_cast<NodeId>(v));
      }
    });
    for (NodeId v = 0; v < n; ++v) {
      if (root_of_[v] == v) size_of_[v] = uf.root_size(v);
    }
    const std::uint64_t base = uf.connected_pairs();
    engine::for_each_shard(n, [&](std::size_t shard, std::size_t begin,
                                  std::size_t end) {
      std::vector<std::uint32_t>& stamp = stamps_[shard];
      std::uint32_t& epoch = epochs_[shard];
      if (epoch >= std::numeric_limits<std::uint32_t>::max() - n - 1) {
        std::fill(stamp.begin(), stamp.end(), 0u);
        epoch = 0;
      }
      for (std::size_t wi = begin; wi < end; ++wi) {
        const auto w = static_cast<NodeId>(wi);
        if (is_broker[w]) continue;
        ++epoch;
        const NodeId rw = root_of_[w];
        stamp[rw] = epoch;
        std::uint64_t merged = size_of_[rw];
        std::uint64_t unmerged_pairs = choose2(size_of_[rw]);
        const auto nbrs = g_.neighbors(w);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          const NodeId v = nbrs[i];
          if (!admit(w, i, v)) continue;
          const NodeId r = root_of_[v];
          if (stamp[r] != epoch) {
            stamp[r] = epoch;
            merged += size_of_[r];
            unmerged_pairs += choose2(size_of_[r]);
          }
        }
        const std::uint64_t after = base - unmerged_pairs + choose2(merged);
        if (take_min) {
          if (after < target[wi]) target[wi] = after;
        } else {
          target[wi] = after;
        }
      }
    });
  }

 private:
  const CsrGraph& g_;
  std::vector<NodeId> root_of_;
  std::vector<std::uint32_t> size_of_;
  std::vector<std::vector<std::uint32_t>> stamps_;
  std::vector<std::uint32_t> epochs_;
};

RobustResult robust_maxsg(const CsrGraph& g, std::uint32_t k,
                          const RobustOptions& options) {
  const NodeId n = g.num_vertices();
  RobustResult result;
  result.brokers = BrokerSet(n);
  if (k == 0) return result;

  const std::uint32_t r = options.redundancy;
  RollbackUnionFind uf(n);
  CandidateSweeper sweeper(g);
  std::optional<bsr::graph::FaultPlane> plane;
  if (options.mode == RobustMode::kFailureGroups) plane.emplace(g);

  std::vector<bool> is_broker(n, false);
  std::vector<NodeId> members;
  members.reserve(k);
  std::vector<std::uint64_t> worst(n), full(n);
  std::uint64_t prev_worst = 0;
  std::uint64_t prev_full = 0;

  while (members.size() < k) {
    const std::span<const NodeId> mspan(members);
    std::uint64_t current_full = 0;
    enumerate_exclusions(g, uf, mspan, 0, 0, [&] {
      current_full = uf.connected_pairs();
      sweeper.sweep(uf, is_broker, engine::AllEdges{}, false, full);
    });

    if (options.mode == RobustMode::kBrokerFailures) {
      if (members.size() + 1 <= r) {
        std::fill(worst.begin(), worst.end(), 0);
      } else {
        std::fill(worst.begin(), worst.end(), kNoPairs);
        enumerate_exclusions(g, uf, mspan, 0, r, [&] {
          sweeper.sweep(uf, is_broker, engine::AllEdges{}, true, worst);
        });
        std::uint64_t worst_without = kNoPairs;
        if (r == 1) {
          worst_without = current_full;
        } else {
          enumerate_exclusions(g, uf, mspan, 0, r - 1, [&] {
            worst_without = std::min(worst_without, uf.connected_pairs());
          });
        }
        for (NodeId w = 0; w < n; ++w) {
          if (worst[w] > worst_without) worst[w] = worst_without;
        }
      }
    } else {
      std::fill(worst.begin(), worst.end(), kNoPairs);
      const engine::FaultAwareFilter admit{&*plane};
      for (const FailureGroup& group : options.groups) {
        plane->fail_group(group);
        const RollbackUnionFind::Checkpoint mark = uf.checkpoint();
        for (const NodeId m : members) {
          if (plane->vertex_ok(m)) engine::unite_star(g, uf, m, admit);
        }
        sweeper.sweep(uf, is_broker, admit, true, worst);
        uf.rollback(mark);
        plane->heal_group(group);
      }
    }

    NodeId best = bsr::graph::kUnreachable;
    std::uint64_t best_worst = 0, best_full = 0;
    for (NodeId w = 0; w < n; ++w) {
      if (is_broker[w]) continue;
      if (best == bsr::graph::kUnreachable || worst[w] > best_worst ||
          (worst[w] == best_worst && full[w] > best_full)) {
        best = w;
        best_worst = worst[w];
        best_full = full[w];
      }
    }
    if (best == bsr::graph::kUnreachable) break;
    if (best_worst == prev_worst && best_full == prev_full) break;

    is_broker[best] = true;
    members.push_back(best);
    result.brokers.add(best);
    result.surviving_curve.push_back(best_worst);
    prev_worst = best_worst;
    prev_full = best_full;
  }

  result.surviving_pairs = prev_worst;
  result.nominal_pairs = prev_full;
  result.coverage = coverage(g, result.brokers);
  return result;
}

}  // namespace reference

/// Failure groups for the reference comparison: the star of the
/// highest-degree vertex (a likely first pick, so the group cuts a broker's
/// star), stars of two more vertices, and two regions of up to three
/// vertices, which usually reach beyond B ∪ N(B).
std::vector<FailureGroup> mixed_groups(const CsrGraph& g, std::uint64_t seed) {
  const NodeId n = g.num_vertices();
  bsr::graph::Rng rng(seed);
  NodeId hub = 0;
  for (NodeId v = 1; v < n; ++v) {
    if (g.degree(v) > g.degree(hub)) hub = v;
  }
  std::vector<FailureGroup> groups{
      bsr::graph::incident_group(g, hub),
      bsr::graph::incident_group(g, static_cast<NodeId>(rng.uniform(n))),
      bsr::graph::incident_group(g, n - 1)};
  for (int i = 0; i < 2; ++i) {
    std::vector<NodeId> region;
    for (int j = 0; j < 3; ++j) region.push_back(static_cast<NodeId>(rng.uniform(n)));
    std::sort(region.begin(), region.end());
    region.erase(std::unique(region.begin(), region.end()), region.end());
    groups.push_back(bsr::graph::region_group(g, region));
  }
  return groups;
}

TEST(RobustMaxsg, MatchesFullSweepReference) {
  std::vector<CsrGraph> graphs;
  std::vector<std::vector<FailureGroup>> extra_groups;
  // Internet topologies of 521 and 1,041 vertices; their IXP-outage groups
  // ride along with the mixed ones.
  for (const double scale : {0.01, 0.02}) {
    auto cfg = bsr::topology::InternetConfig{}.scaled(scale);
    cfg.seed = 77;
    const auto topo = bsr::topology::make_internet(cfg);
    graphs.push_back(topo.graph);
    std::vector<FailureGroup> ixps;
    for (NodeId v = topo.num_ases; v < topo.num_vertices(); ++v) {
      ixps.push_back(bsr::graph::incident_group(topo.graph, v));
    }
    extra_groups.push_back(std::move(ixps));
  }
  // Edgeless: every score is 0 and nothing moves, so no pick is made.
  graphs.push_back(GraphBuilder(9).build());
  extra_groups.emplace_back();
  // Disconnected: a star, a triangle and five isolated vertices.
  {
    GraphBuilder b(14);
    for (NodeId v = 1; v < 6; ++v) b.add_edge(0, v);
    b.add_edge(6, 7);
    b.add_edge(7, 8);
    b.add_edge(6, 8);
    graphs.push_back(b.build());
    extra_groups.emplace_back();
  }
  // Two stars joined by a bridge, with hub A's whole star as one more group.
  {
    GraphBuilder b(8);
    for (NodeId v = 1; v <= 3; ++v) b.add_edge(0, v);
    for (NodeId v = 5; v <= 7; ++v) b.add_edge(4, v);
    b.add_edge(3, 5);
    graphs.push_back(b.build());
    extra_groups.push_back({bsr::graph::incident_group(graphs.back(), 0)});
  }
  // Sparse G(60, 0.03): many components and isolated vertices.
  for (const std::uint64_t seed : {1u, 2u}) {
    graphs.push_back(bsr::test::make_random(60, 0.03, seed + 40));
    extra_groups.emplace_back();
  }
  // Seeded random graphs of 2-80 vertices; every third has a hub joined to
  // most other vertices.
  for (std::uint64_t seed = 200; seed < 236; ++seed) {
    bsr::graph::Rng rng(seed);
    const auto n = static_cast<NodeId>(2 + rng.uniform(79));
    const double p = 0.1 * rng.uniform01();
    GraphBuilder b(n);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        if (rng.bernoulli(p)) b.add_edge(u, v);
      }
    }
    if (seed % 3 == 0) {
      const auto hub = static_cast<NodeId>(rng.uniform(n));
      for (NodeId v = 0; v < n; ++v) {
        if (v != hub && rng.bernoulli(0.7)) b.add_edge(hub, v);
      }
    }
    graphs.push_back(b.build());
    extra_groups.emplace_back();
  }
  // Group edges that touch a final broker (they cut its star) and group
  // edges with an endpoint outside the final B ∪ N(B); both must occur.
  std::size_t cut_star_edges = 0;
  std::size_t uncovered_edges = 0;
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const CsrGraph& g = graphs[gi];
    std::vector<FailureGroup> groups = mixed_groups(g, gi);
    groups.insert(groups.end(), extra_groups[gi].begin(), extra_groups[gi].end());
    std::vector<RobustOptions> configs;
    for (const std::uint32_t r : {1u, 2u, 3u}) {
      RobustOptions opts;
      opts.redundancy = r;
      configs.push_back(opts);
    }
    RobustOptions group_opts;
    group_opts.mode = RobustMode::kFailureGroups;
    group_opts.groups = groups;
    configs.push_back(group_opts);
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const std::uint32_t k = c < 3 ? 7 : 5;
      const RobustResult expected = reference::robust_maxsg(g, k, configs[c]);
      for (const int threads : {1, 4}) {
        bsr::graph::engine::set_num_threads(threads);
        const RobustResult got = robust_maxsg(g, k, configs[c]);
        bsr::graph::engine::set_num_threads(0);
        SCOPED_TRACE(::testing::Message() << "graph " << gi << " n "
                                          << g.num_vertices() << " config " << c
                                          << " threads " << threads);
        EXPECT_TRUE(std::ranges::equal(got.brokers.members(),
                                       expected.brokers.members()));
        EXPECT_EQ(got.surviving_curve, expected.surviving_curve);
        EXPECT_EQ(got.surviving_pairs, expected.surviving_pairs);
        EXPECT_EQ(got.nominal_pairs, expected.nominal_pairs);
        EXPECT_EQ(got.coverage, expected.coverage);
      }
      if (configs[c].mode != RobustMode::kFailureGroups) continue;
      const BrokerSet& b = expected.brokers;
      const auto covered = [&](NodeId v) {
        return b.contains(v) || std::ranges::any_of(g.neighbors(v), [&](NodeId u) {
                 return b.contains(u);
               });
      };
      for (const FailureGroup& group : groups) {
        for (const auto& e : group.edges) {
          cut_star_edges += b.contains(e.u) || b.contains(e.v);
          uncovered_edges += !covered(e.u) || !covered(e.v);
        }
      }
    }
  }
  EXPECT_GT(cut_star_edges, 0u);
  EXPECT_GT(uncovered_edges, 0u);
}

// --- validation -------------------------------------------------------------

TEST(RobustMaxsg, ValidationThrows) {
  const CsrGraph g = make_cycle(6);
  RobustOptions zero_r;
  zero_r.redundancy = 0;
  EXPECT_THROW(robust_maxsg(g, 3, zero_r), std::invalid_argument);
  RobustOptions no_groups;
  no_groups.mode = RobustMode::kFailureGroups;
  EXPECT_THROW(robust_maxsg(g, 3, no_groups), std::invalid_argument);
  const CsrGraph empty = GraphBuilder(0).build();
  EXPECT_THROW(robust_maxsg(empty, 3, RobustOptions{}), std::invalid_argument);
  BrokerSet b(6);
  b.add(0);
  EXPECT_THROW(
      (void)worst_case_surviving_pairs(g, b, std::span<const FailureGroup>{}),
      std::invalid_argument);
  EXPECT_THROW((void)brute_force_group_surviving_pairs(
                   g, b, std::span<const FailureGroup>{}),
               std::invalid_argument);
}

TEST(BruteForce, RefusesSetsTooLargeToEnumerate) {
  const CsrGraph g = bsr::test::make_complete(24);
  BrokerSet b(24);
  for (NodeId v = 0; v < 24; ++v) b.add(v);
  EXPECT_THROW((void)brute_force_surviving_pairs(g, b, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace bsr::broker
