#include "broker/maxsg.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "broker/coverage.hpp"
#include "graph/components.hpp"
#include "graph/engine.hpp"
#include "graph/renumbering.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"

namespace bsr::broker {

using bsr::graph::CsrGraph;
using bsr::graph::kUnreachable;
using bsr::graph::NodeId;
using bsr::graph::Renumbering;

namespace {

/// Per-shard stamp scratch for distinct-label dedup during gain evaluation:
/// O(deg) per candidate even for 5,000-degree hubs (a scan-based dedup would
/// be O(deg²) there). One instance per shard so workers never share stamps.
struct GainScratch {
  std::vector<std::uint32_t> stamp;  // indexed by component label
  std::uint32_t epoch = 0;

  void bump() {
    if (++epoch == 0) {  // wrap: re-zero once per ~4B evaluations
      std::fill(stamp.begin(), stamp.end(), 0u);
      epoch = 1;
    }
  }
};

}  // namespace

MaxSgResult maxsg(const CsrGraph& g, std::uint32_t k, const MaxSgOptions& options) {
  BSR_SPAN("broker.maxsg");
  const NodeId n = g.num_vertices();
  if (n == 0) throw std::invalid_argument("maxsg: empty graph");
  const Renumbering* ren = options.renumbering;
  if (ren != nullptr && ren->size() != n) {
    throw std::invalid_argument("maxsg: renumbering size mismatch");
  }

  MaxSgResult result;
  result.brokers = BrokerSet(n);
  if (k == 0) return result;

  // Size of the graph's largest (unrestricted) component — the ceiling the
  // dominated component can reach; used for early stopping.
  const std::uint32_t reachable_ceiling =
      bsr::graph::connected_components(g).largest_size();

  // Components of the dominated subgraph G_B as explicit labels: label[v]
  // names v's component (a vertex id; every vertex starts alone), comp_size
  // is indexed by label, and each label owns an intrusive member list
  // (head/next chains ending at kUnreachable). Labels change only when a
  // pick merges components, never during a sweep, so shards read them as
  // flat arrays — a candidate's gain costs two loads per edge.
  std::vector<NodeId> label(n);
  std::vector<std::uint32_t> comp_size(n, 1);
  std::vector<NodeId> list_head(n);
  std::vector<NodeId> list_tail(n);
  std::vector<NodeId> list_next(n, kUnreachable);
  for (NodeId v = 0; v < n; ++v) label[v] = list_head[v] = list_tail[v] = v;
  std::vector<bool> is_broker(n, false);  // graph-id space
  std::uint32_t largest = 0;

  // Anchor-factored gain cache (see maxsg.hpp). All graph-id indexed.
  //   gain(w) = rest_gain[w] + (adj_anchor[w] ? size(anchor) : 0)
  // adj_anchor is uint8_t, not vector<bool>: shards write disjoint entries
  // concurrently and must not share bytes.
  std::vector<std::uint32_t> rest_gain(n, 0);
  std::vector<std::uint8_t> adj_anchor(n, 0);
  std::vector<std::uint32_t> dirty_round(n, 1);  // every candidate dirty in round 1
  NodeId anchor_rep = kUnreachable;  // any vertex of the anchor component

  const std::size_t shards = bsr::graph::engine::plan_shards(n);
  std::vector<GainScratch> scratch(shards);
  for (auto& s : scratch) s.stamp.assign(n, 0);
  struct Best {
    std::uint32_t gain = 0;
    NodeId cand = kUnreachable;  // candidate index == ORIGINAL id
  };
  std::vector<Best> shard_best(shards);
  std::vector<std::uint64_t> shard_evals(shards, 0);
  std::vector<NodeId> star_labels;

  std::uint32_t round = 1;
  while (result.brokers.size() < k) {
    BSR_COUNT(MaxsgRounds);
    const NodeId anchor =
        anchor_rep == kUnreachable ? kUnreachable : label[anchor_rep];
    const std::uint32_t anchor_size = anchor == kUnreachable ? 0 : comp_size[anchor];

    // Sharded sweep: recompute dirty candidates, argmax over all of them.
    // Candidates are iterated in ORIGINAL-id order (candidate index c; graph
    // vertex w = to_new(c)), so the lowest-original-id tie-break — and hence
    // the selected set — is invariant under renumbering AND thread count:
    // shards cover ascending contiguous candidate ranges and are merged in
    // shard order with a strict comparison.
    bsr::graph::engine::for_each_shard(n, [&](std::size_t shard, std::size_t begin,
                                  std::size_t end) {
      GainScratch& sc = scratch[shard];
      Best best;
      std::uint64_t evals = 0;
      for (std::size_t c = begin; c < end; ++c) {
        const NodeId w =
            ren ? ren->to_new(static_cast<NodeId>(c)) : static_cast<NodeId>(c);
        if (is_broker[w]) continue;
        if (dirty_round[w] == round) {
          ++evals;
          sc.bump();
          std::uint32_t rest = 0;
          std::uint8_t adj = 0;
          const NodeId lw = label[w];
          sc.stamp[lw] = sc.epoch;
          if (lw == anchor) {
            adj = 1;
          } else {
            rest += comp_size[lw];
          }
          for (const NodeId v : g.neighbors(w)) {
            const NodeId l = label[v];
            if (sc.stamp[l] != sc.epoch) {
              sc.stamp[l] = sc.epoch;
              if (l == anchor) {
                adj = 1;
              } else {
                rest += comp_size[l];
              }
            }
          }
          rest_gain[w] = rest;
          adj_anchor[w] = adj;
        }
        const std::uint32_t gain =
            rest_gain[w] + (adj_anchor[w] != 0 ? anchor_size : 0);
        if (gain > best.gain) {
          best.gain = gain;
          best.cand = static_cast<NodeId>(c);
        }
      }
      shard_best[shard] = best;
      shard_evals[shard] = evals;
    });
    Best best;
    for (std::size_t s = 0; s < shards; ++s) {
      if (shard_best[s].gain > best.gain) best = shard_best[s];
    }
    BSR_STATS_ONLY(std::uint64_t total_evals = 0;
                   for (const std::uint64_t e
                        : shard_evals) total_evals += e;
                   BSR_COUNT_N(MaxsgGainEvals, total_evals);)
    if (best.cand == kUnreachable) break;

    const NodeId w_best = ren ? ren->to_new(best.cand) : best.cand;
    is_broker[w_best] = true;
    result.brokers.add(best.cand);  // original id

    // Distinct components of the star {w_best} ∪ N(w_best), pre-merge.
    GainScratch& sc0 = scratch[0];
    sc0.bump();
    star_labels.clear();
    const NodeId lw = label[w_best];
    sc0.stamp[lw] = sc0.epoch;
    star_labels.push_back(lw);
    for (const NodeId v : g.neighbors(w_best)) {
      const NodeId l = label[v];
      if (sc0.stamp[l] != sc0.epoch) {
        sc0.stamp[l] = sc0.epoch;
        star_labels.push_back(l);
      }
    }
    const bool involves_anchor =
        anchor != kUnreachable && sc0.stamp[anchor] == sc0.epoch;

    // Dirty marking, BEFORE the merge below so each chain still enumerates
    // exactly one pre-merge component. Every candidate whose closed
    // neighborhood touches a *non-anchor* merged component must recompute
    // next round (its component-membership/size terms changed). Candidates
    // touching only the anchor stay clean: the anchor never shrinks and its
    // fresh size is applied at evaluation time. Each vertex is absorbed into
    // the anchor at most once, so this marking is amortized O(|V| + |E|)
    // over the whole run.
    if (star_labels.size() >= 2) {
      const std::uint32_t next_round = round + 1;
      for (const NodeId l : star_labels) {
        if (l == anchor) continue;
        for (NodeId m = list_head[l]; m != kUnreachable; m = list_next[m]) {
          dirty_round[m] = next_round;
          for (const NodeId nb : g.neighbors(m)) dirty_round[nb] = next_round;
        }
      }
    }

    // Activate w_best: every edge of its star joins G_B, so the star's
    // components merge into the largest of them. Only the smaller ones are
    // relabelled and spliced, so a vertex changes label only when its
    // component at least doubles: O(|V| log |V|) relabels over the run.
    NodeId into = lw;
    for (const NodeId l : star_labels) {
      if (comp_size[l] > comp_size[into]) into = l;
    }
    for (const NodeId l : star_labels) {
      if (l == into) continue;
      for (NodeId m = list_head[l]; m != kUnreachable; m = list_next[m]) {
        label[m] = into;
      }
      list_next[list_tail[into]] = list_head[l];
      list_tail[into] = list_tail[l];
      comp_size[into] += comp_size[l];
    }
    // Counted as engine::unite_star counts the same star.
    BSR_COUNT_N(EngineUniteEdgeScans, g.degree(w_best));
    BSR_COUNT_N(EngineUniteAdmitted, g.degree(w_best));

    // The merged component becomes (or extends) the anchor only when it
    // contains the previous anchor — switching the anchor to a disjoint
    // component would invalidate every cached adj_anchor bit.
    if (anchor_rep == kUnreachable || involves_anchor) anchor_rep = w_best;

    largest = std::max(largest, comp_size[into]);
    result.component_curve.push_back(largest);
    ++round;

    if (options.stop_when_dominating && largest >= reachable_ceiling) break;
  }

  result.final_component = largest;
  if (ren != nullptr) {
    // Brokers carry original ids; coverage runs on the renumbered graph.
    const std::vector<NodeId> mapped = ren->map_to_new(result.brokers.members());
    result.coverage = coverage(g, BrokerSet(n, mapped));
  } else {
    result.coverage = coverage(g, result.brokers);
  }
  return result;
}

}  // namespace bsr::broker
