#include "broker/greedy_mcb.hpp"

#include <queue>
#include <stdexcept>
#include <vector>

#include "broker/coverage.hpp"
#include "graph/renumbering.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"

namespace bsr::broker {

using bsr::graph::CsrGraph;
using bsr::graph::NodeId;
using bsr::graph::Renumbering;

GreedyMcbResult greedy_mcb(const CsrGraph& g, std::uint32_t k,
                           const Renumbering* ren) {
  BSR_SPAN("broker.greedy_mcb");
  const NodeId n = g.num_vertices();
  if (n == 0) throw std::invalid_argument("greedy_mcb: empty graph");
  if (ren != nullptr && ren->size() != n) {
    throw std::invalid_argument("greedy_mcb: renumbering size mismatch");
  }

  GreedyMcbResult result;
  result.brokers = BrokerSet(n);
  if (k == 0) return result;

  CoverageTracker tracker(g);
  // Heap entries and all ids below live in the ORIGINAL label space; only
  // tracker calls translate through the renumbering. With ren == nullptr
  // to_graph is the identity.
  const auto to_graph = [&](NodeId v) { return ren ? ren->to_new(v) : v; };

  // Lazy greedy: heap entries carry the iteration at which the gain was
  // computed; submodularity guarantees gains only shrink, so a stale top
  // entry is an upper bound and can be refreshed in place.
  struct Entry {
    std::uint32_t gain;
    NodeId vertex;
    std::uint32_t stamp;
    bool operator<(const Entry& other) const {
      if (gain != other.gain) return gain < other.gain;
      return vertex > other.vertex;  // deterministic tie-break: lowest id wins
    }
  };
  std::priority_queue<Entry> heap;
  // Before any pick nothing is covered, and CsrGraph lists hold no
  // duplicates or self-loops, so every first gain is 1 + deg(v).
  for (NodeId v = 0; v < n; ++v) heap.push(Entry{1 + g.degree(to_graph(v)), v, 0});
  BSR_STATS_ONLY(std::uint64_t evals = n;)

  std::uint32_t round = 0;
  while (result.brokers.size() < k && !heap.empty() && !tracker.all_covered()) {
    Entry top = heap.top();
    heap.pop();
    if (tracker.is_broker(to_graph(top.vertex))) continue;
    if (top.stamp != round) {
      BSR_STATS_ONLY(++evals;)
      top.gain = tracker.marginal_gain(to_graph(top.vertex));
      top.stamp = round;
      if (top.gain == 0) continue;  // nothing new to cover from this vertex
      heap.push(top);
      continue;
    }
    tracker.add(to_graph(top.vertex));
    result.brokers.add(top.vertex);
    result.coverage_curve.push_back(tracker.covered_count());
    BSR_COUNT(GreedyRounds);
    ++round;
  }
  BSR_COUNT_N(GreedyGainEvals, evals);
  result.coverage = tracker.covered_count();
  return result;
}

}  // namespace bsr::broker
