// Determinism contract for BSR_THREADS: sampled-source traversals must be
// bit-identical — not merely statistically equivalent — at any thread count.
// These tests exercise the same code path the env var toggles, via the
// set_num_threads() override.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "broker/broker_set.hpp"
#include "broker/dominated.hpp"
#include "graph/distance_histogram.hpp"
#include "graph/engine.hpp"
#include "graph/rng.hpp"
#include "test_util.hpp"

namespace bsr::graph {
namespace {

using bsr::test::make_connected_random;

/// Restores the environment-derived thread count even if a test fails.
struct ThreadGuard {
  ~ThreadGuard() { engine::set_num_threads(0); }
};

std::vector<NodeId> every_kth_vertex(NodeId n, NodeId k) {
  std::vector<NodeId> sources;
  for (NodeId v = 0; v < n; v += k) sources.push_back(v);
  return sources;
}

void expect_identical(const DistanceCdf& a, const DistanceCdf& b) {
  ASSERT_EQ(a.cdf.size(), b.cdf.size());
  for (std::size_t l = 0; l < a.cdf.size(); ++l) {
    EXPECT_EQ(a.cdf[l], b.cdf[l]) << "cdf diverges at l=" << l;
  }
  EXPECT_EQ(a.reachable, b.reachable);
  EXPECT_EQ(a.sources_used, b.sources_used);
}

TEST(EngineParallel, PlanShardsRespectsThreadCountAndWorkSize) {
  ThreadGuard guard;
  engine::set_num_threads(4);
  EXPECT_EQ(engine::num_threads(), 4);
  EXPECT_EQ(engine::plan_shards(100), 4u);
  EXPECT_EQ(engine::plan_shards(3), 3u);   // never more shards than items
  EXPECT_EQ(engine::plan_shards(0), 1u);   // degenerate work still gets a shard
  engine::set_num_threads(1);
  EXPECT_EQ(engine::plan_shards(100), 1u);
}

TEST(EngineParallel, ForEachShardPartitionsExactlyOnce) {
  ThreadGuard guard;
  for (const int threads : {1, 2, 8}) {
    engine::set_num_threads(threads);
    const std::size_t count = 37;  // deliberately not divisible by 2 or 8
    std::vector<int> hits(count, 0);
    engine::for_each_shard(count,
                           [&](std::size_t /*shard*/, std::size_t begin,
                               std::size_t end) {
                             for (std::size_t i = begin; i < end; ++i) ++hits[i];
                           });
    // Disjoint contiguous blocks covering [0, count): each item exactly once.
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
              static_cast<int>(count));
    for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(hits[i], 1) << "item " << i;
  }
}

TEST(EngineParallel, UnfilteredCdfInvariantUnderThreadCount) {
  ThreadGuard guard;
  const CsrGraph g = make_connected_random(300, 0.015, 5);
  const auto sources = every_kth_vertex(g.num_vertices(), 3);

  engine::set_num_threads(1);
  const DistanceCdf serial = distance_cdf_from_sources(g, sources);
  for (const int threads : {2, 8}) {
    engine::set_num_threads(threads);
    expect_identical(distance_cdf_from_sources(g, sources), serial);
  }
}

TEST(EngineParallel, DominatedCdfInvariantUnderThreadCount) {
  ThreadGuard guard;
  const CsrGraph g = make_connected_random(250, 0.02, 9);
  Rng rng(17);
  bsr::broker::BrokerSet brokers(g.num_vertices());
  for (NodeId v = 0; v < g.num_vertices(); ++v) {
    if (rng.bernoulli(0.2)) brokers.add(v);
  }
  const auto sources = every_kth_vertex(g.num_vertices(), 2);
  const engine::DominatedEdgeFilter filter{&brokers.mask()};

  engine::set_num_threads(1);
  const DistanceCdf serial = distance_cdf_from_sources(g, sources, filter);
  for (const int threads : {2, 8}) {
    engine::set_num_threads(threads);
    expect_identical(distance_cdf_from_sources(g, sources, filter), serial);
  }
}

TEST(EngineParallel, DominatedDistanceCdfEndToEndInvariant) {
  // Full broker-layer entry point (sampled sources + dominated filter), the
  // path BSR_THREADS actually accelerates in experiments.
  ThreadGuard guard;
  const CsrGraph g = make_connected_random(220, 0.02, 41);
  bsr::broker::BrokerSet brokers(g.num_vertices());
  Rng pick(7);
  for (int i = 0; i < 30; ++i) {
    brokers.add(static_cast<NodeId>(pick.uniform(g.num_vertices())));
  }

  engine::set_num_threads(1);
  Rng rng_serial(1234);
  const DistanceCdf serial =
      bsr::broker::dominated_distance_cdf(g, brokers, rng_serial, 64);
  for (const int threads : {2, 8}) {
    engine::set_num_threads(threads);
    Rng rng_parallel(1234);  // identical seed => identical sampled sources
    expect_identical(
        bsr::broker::dominated_distance_cdf(g, brokers, rng_parallel, 64),
        serial);
  }
}

TEST(EngineParallel, SetNumThreadsZeroRestoresEnvironmentValue) {
  const int env_value = engine::num_threads();
  engine::set_num_threads(6);
  EXPECT_EQ(engine::num_threads(), 6);
  engine::set_num_threads(0);
  EXPECT_EQ(engine::num_threads(), env_value);
}

}  // namespace
}  // namespace bsr::graph
