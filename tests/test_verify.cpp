#include "broker/verify.hpp"

#include <gtest/gtest.h>

#include "broker/greedy_mcb.hpp"
#include "test_util.hpp"

namespace bsr::broker {
namespace {

using bsr::graph::CsrGraph;
using bsr::graph::NodeId;
using bsr::test::make_complete;
using bsr::test::make_path;
using bsr::test::make_star;

TEST(DominatingPath, ValidatesHopByHop) {
  const CsrGraph g = make_path(5);
  BrokerSet b(5);
  b.add(1);
  b.add(3);
  const std::vector<NodeId> good{0, 1, 2, 3, 4};
  EXPECT_TRUE(is_dominating_path(g, b, good));

  BrokerSet sparse(5);
  sparse.add(1);
  // Hop 2-3 has no broker endpoint.
  EXPECT_FALSE(is_dominating_path(g, sparse, good));
}

TEST(DominatingPath, RejectsNonPaths) {
  const CsrGraph g = make_path(5);
  BrokerSet b(5);
  b.add(2);
  const std::vector<NodeId> not_adjacent{0, 2};
  EXPECT_FALSE(is_dominating_path(g, b, not_adjacent));
  const std::vector<NodeId> out_of_range{0, 7};
  EXPECT_FALSE(is_dominating_path(g, b, out_of_range));
}

TEST(DominatingPath, TrivialPathsAlwaysValid) {
  const CsrGraph g = make_path(3);
  const BrokerSet b(3);
  EXPECT_TRUE(is_dominating_path(g, b, {}));
  const std::vector<NodeId> single{1};
  EXPECT_TRUE(is_dominating_path(g, b, single));
}

TEST(PairwiseGuarantee, EmptySetVacuouslyTrue) {
  const CsrGraph g = make_path(4);
  EXPECT_TRUE(has_pairwise_guarantee(g, BrokerSet(4)));
}

TEST(PairwiseGuarantee, SingleCentralBroker) {
  const CsrGraph g = make_star(6);
  BrokerSet b(6);
  b.add(0);
  EXPECT_TRUE(has_pairwise_guarantee(g, b));
}

TEST(PairwiseGuarantee, DetectsSplitCoverage) {
  // Path 0-1-2-3-4-5 with brokers {0, 5}: covered = {0,1,4,5} but the two
  // dominated components {0,1} and {4,5} are separate.
  const CsrGraph g = make_path(6);
  BrokerSet b(6);
  b.add(0);
  b.add(5);
  EXPECT_FALSE(has_pairwise_guarantee(g, b));
}

TEST(PairwiseGuarantee, AdjacentBrokersBridge) {
  const CsrGraph g = make_path(6);
  BrokerSet b(6);
  b.add(2);
  b.add(3);
  EXPECT_TRUE(has_pairwise_guarantee(g, b));
}

TEST(BruteForce, KnownOptimaOnStar) {
  const CsrGraph g = make_star(7);
  EXPECT_EQ(brute_force_mcb_optimum(g, 1), 7u);
  EXPECT_EQ(brute_force_mcbg_optimum(g, 1), 7u);
}

TEST(BruteForce, PathOptima) {
  const CsrGraph g = make_path(6);
  // One broker covers at most 3 vertices of a path.
  EXPECT_EQ(brute_force_mcb_optimum(g, 1), 3u);
  // Two brokers cover up to 6 — MCB allows {1, 4} (covered split is fine).
  EXPECT_EQ(brute_force_mcb_optimum(g, 2), 6u);
  // MCBG at k = 2 must keep the dominated component connected: {1, 3}
  // covers {0,1,2,3,4} with every hop dominated; {1, 4} covers all 6 but
  // splits the dominated subgraph, so it is not admissible.
  EXPECT_EQ(brute_force_mcbg_optimum(g, 2), 5u);
}

TEST(BruteForce, McbgNeverExceedsMcb) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const CsrGraph g = bsr::test::make_random(10, 0.25, seed);
    for (const std::uint32_t k : {1u, 2u, 3u}) {
      EXPECT_LE(brute_force_mcbg_optimum(g, k), brute_force_mcb_optimum(g, k));
    }
  }
}

TEST(BruteForce, GreedyNeverBeatsBruteForce) {
  for (const std::uint64_t seed : {5ull, 6ull}) {
    const CsrGraph g = bsr::test::make_random(12, 0.2, seed);
    for (const std::uint32_t k : {1u, 2u, 4u}) {
      const auto greedy = greedy_mcb(g, k);
      EXPECT_LE(greedy.coverage, brute_force_mcb_optimum(g, k));
    }
  }
}

TEST(BruteForce, LargeGraphRejected) {
  const CsrGraph g = bsr::test::make_random(30, 0.1, 1);
  EXPECT_THROW((void)brute_force_mcb_optimum(g, 2), std::invalid_argument);
}

}  // namespace
}  // namespace bsr::broker
