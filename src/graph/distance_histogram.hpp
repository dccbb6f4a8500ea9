// Hop-distance distributions ("l-hop E2E connectivity", paper §5.2).
//
// F(l) — the fraction of ordered source-destination pairs whose shortest
// (possibly policy/domination-filtered) path is at most l hops — is the
// paper's central evaluation metric. Exact all-pairs BFS is O(V(V+E)) which
// is ~40 G operations on the 52k-vertex topology, so large graphs are
// evaluated from a uniform sample of BFS sources; each source contributes
// its exact distance profile, making the estimator unbiased. The paper's
// reported resolution (two decimals in percent) is far above the sampling
// error at >= 512 sources.
//
// Every entry point takes an engine filter struct (graph/engine.hpp,
// AllEdges by default) that inlines into the BFS loop, and splits its
// sources across BSR_THREADS shards. Per-shard histograms are integer counts
// merged in shard order, and the shard partition depends only on the source
// count, so the result is bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/engine.hpp"
#include "graph/rng.hpp"
#include "graph/sampling.hpp"

namespace bsr::graph {

struct DistanceCdf {
  /// cdf[l] = estimated fraction of ordered (u, v), u != v, with d(u, v) <= l.
  /// cdf[0] is always 0. Monotone non-decreasing.
  std::vector<double> cdf;
  /// Fraction of ordered pairs that are reachable at all ("saturated E2E
  /// connectivity" in the paper's terms). Equals cdf.back().
  double reachable = 0.0;
  /// Number of BFS sources used.
  std::size_t sources_used = 0;

  /// Fraction of pairs within l hops; saturates at `reachable` for large l.
  [[nodiscard]] double at(std::uint32_t l) const noexcept {
    if (cdf.empty()) return 0.0;
    return l < cdf.size() ? cdf[l] : cdf.back();
  }
};

namespace detail {

/// Normalizes a per-distance target count into a DistanceCdf.
[[nodiscard]] DistanceCdf cdf_from_histogram(std::vector<std::uint64_t> histogram,
                                             std::size_t sources_used, NodeId n);

}  // namespace detail

/// Distance CDF from explicit BFS sources over the edges `filter` admits
/// (e.g. engine::DominatedEdgeFilter for the dominated subgraph).
/// Destinations range over all vertices other than the source.
template <class Filter = engine::AllEdges>
[[nodiscard]] DistanceCdf distance_cdf_from_sources(const CsrGraph& g,
                                                    std::span<const NodeId> sources,
                                                    Filter filter = {}) {
  const NodeId n = g.num_vertices();
  if (n < 2) throw std::invalid_argument("distance_cdf: need at least 2 vertices");
  if (sources.empty()) throw std::invalid_argument("distance_cdf: no sources");

  const std::size_t shards = engine::plan_shards(sources.size());
  std::vector<std::vector<std::uint64_t>> partial(shards);
  engine::for_each_shard(
      sources.size(), [&](std::size_t shard, std::size_t begin, std::size_t end) {
        auto& ws = engine::tls_workspace();
        auto& hist = partial[shard];
        for (std::size_t i = begin; i < end; ++i) {
          engine::bfs(g, sources[i], ws, filter);
          for (const NodeId v : ws.visit_order()) {
            const std::uint32_t d = ws.dist_unchecked(v);
            if (d == 0) continue;  // the source itself
            if (d >= hist.size()) hist.resize(d + 1, 0);
            ++hist[d];
          }
        }
      });

  std::vector<std::uint64_t> histogram = std::move(partial[0]);
  for (std::size_t s = 1; s < shards; ++s) {
    if (partial[s].size() > histogram.size()) histogram.resize(partial[s].size(), 0);
    for (std::size_t l = 0; l < partial[s].size(); ++l) histogram[l] += partial[s][l];
  }
  return detail::cdf_from_histogram(std::move(histogram), sources.size(), n);
}

/// Exact distance CDF (BFS from every vertex). Small graphs / tests only.
template <class Filter = engine::AllEdges>
[[nodiscard]] DistanceCdf distance_cdf_exact(const CsrGraph& g, Filter filter = {}) {
  std::vector<NodeId> all(g.num_vertices());
  std::iota(all.begin(), all.end(), NodeId{0});
  return distance_cdf_from_sources(g, all, filter);
}

/// Distance CDF from `num_sources` uniformly sampled distinct sources
/// (all vertices, drawing nothing from `rng`, if num_sources >= |V|).
template <class Filter = engine::AllEdges>
[[nodiscard]] DistanceCdf distance_cdf_sampled(const CsrGraph& g, Rng& rng,
                                               std::size_t num_sources,
                                               Filter filter = {}) {
  const NodeId n = g.num_vertices();
  if (num_sources >= n) return distance_cdf_exact(g, filter);
  const auto sources = sample_distinct(rng, n, static_cast<NodeId>(num_sources));
  return distance_cdf_from_sources(g, sources, filter);
}

/// Maximum absolute deviation max_l |a(l) - b(l)| between two CDFs — the
/// epsilon-feasibility test of Eq. (4) in the paper.
[[nodiscard]] double max_cdf_deviation(const DistanceCdf& a, const DistanceCdf& b);

}  // namespace bsr::graph
