#include "graph/distance_histogram.hpp"

#include <algorithm>
#include <cmath>

namespace bsr::graph {

namespace detail {

DistanceCdf cdf_from_histogram(std::vector<std::uint64_t> histogram,
                               std::size_t sources_used, NodeId n) {
  DistanceCdf out;
  out.sources_used = sources_used;
  const double denom =
      static_cast<double>(sources_used) * static_cast<double>(n - 1);
  out.cdf.resize(std::max<std::size_t>(histogram.size(), 1), 0.0);
  std::uint64_t running = 0;
  for (std::size_t l = 1; l < histogram.size(); ++l) {
    running += histogram[l];
    out.cdf[l] = static_cast<double>(running) / denom;
  }
  out.reachable = out.cdf.back();
  return out;
}

}  // namespace detail

double max_cdf_deviation(const DistanceCdf& a, const DistanceCdf& b) {
  const std::size_t len = std::max(a.cdf.size(), b.cdf.size());
  double worst = 0.0;
  for (std::size_t l = 0; l < len; ++l) {
    worst = std::max(worst, std::abs(a.at(static_cast<std::uint32_t>(l)) -
                                     b.at(static_cast<std::uint32_t>(l))));
  }
  return worst;
}

}  // namespace bsr::graph
