#include "broker/path_length.hpp"

#include <stdexcept>

#include "graph/sampling.hpp"

namespace bsr::broker {

using bsr::graph::CsrGraph;
using bsr::graph::NodeId;
using bsr::graph::Rng;

PathLengthComparison compare_path_lengths(const CsrGraph& g, const BrokerSet& b,
                                          Rng& rng, std::size_t num_sources) {
  std::vector<NodeId> sources;
  if (num_sources >= g.num_vertices()) {
    sources.resize(g.num_vertices());
    for (NodeId v = 0; v < g.num_vertices(); ++v) sources[v] = v;
  } else {
    sources = bsr::graph::sample_distinct(rng, g.num_vertices(),
                                          static_cast<NodeId>(num_sources));
  }
  return compare_path_lengths(g, b, sources);
}

PathLengthComparison compare_path_lengths(const CsrGraph& g, const BrokerSet& b,
                                          std::span<const NodeId> sources) {
  if (b.num_vertices() != g.num_vertices()) {
    throw std::invalid_argument("compare_path_lengths: size mismatch");
  }
  PathLengthComparison out;
  out.free_paths = bsr::graph::distance_cdf_from_sources(g, sources);
  out.dominated_paths = bsr::graph::distance_cdf_from_sources(
      g, sources, bsr::graph::engine::DominatedEdgeFilter{&b.mask()});
  out.max_deviation = bsr::graph::max_cdf_deviation(out.free_paths, out.dominated_paths);
  return out;
}

}  // namespace bsr::broker
