#include "broker/maxsg.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <vector>

#include "broker/coverage.hpp"
#include "graph/components.hpp"
#include "graph/renumbering.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"

namespace bsr::broker {

using bsr::graph::CsrGraph;
using bsr::graph::kUnreachable;
using bsr::graph::NodeId;
using bsr::graph::Renumbering;

namespace {

/// Max-tree over candidate slots (original ids), in heap layout: leaves sit
/// at [width, 2·width), node i holds the larger of nodes 2i and 2i+1, and
/// node 1 holds the best candidate. A leaf holds key(rest, slot) =
/// rest·2³² + ~slot, so of two keys the larger has the larger rest gain and,
/// on a tie, the lower original id. An empty leaf (a broker, or a candidate
/// kept in the other tree) holds 0, below every real key.
class MaxTree {
 public:
  explicit MaxTree(NodeId n) : width_(std::bit_ceil(std::size_t{n})), node_(2 * width_, 0) {}

  [[nodiscard]] static std::uint64_t key(std::uint32_t rest, NodeId slot) {
    return (std::uint64_t{rest} << 32) | static_cast<NodeId>(~slot);
  }
  [[nodiscard]] static std::uint32_t rest_of(std::uint64_t key) {
    return static_cast<std::uint32_t>(key >> 32);
  }
  [[nodiscard]] static NodeId slot_of(std::uint64_t key) {
    return static_cast<NodeId>(~key);
  }

  /// The best key; 0 when every leaf is empty.
  [[nodiscard]] std::uint64_t top() const { return node_[1]; }

  /// Writes a leaf; its ancestors go stale until build() or refresh().
  void set(NodeId slot, std::uint64_t key) { node_[width_ + slot] = key; }

  /// Recomputes every internal node.
  void build() {
    for (std::size_t i = width_ - 1; i >= 1; --i) pull(i);
  }

  /// Recomputes each ancestor of the leaves in `slots` (sorted ascending)
  /// once, level by level: the parents of a sorted list come out sorted, so
  /// duplicates are neighbours. Overwrites `slots`.
  void refresh(std::vector<NodeId>& slots) {
    for (std::size_t level = width_ >> 1; level >= 1; level >>= 1) {
      std::size_t out = 0;
      for (const NodeId s : slots) {
        const NodeId parent = s >> 1;
        if (out == 0 || slots[out - 1] != parent) slots[out++] = parent;
      }
      slots.resize(out);
      for (const NodeId p : slots) pull(level + p);
    }
  }

 private:
  void pull(std::size_t i) { node_[i] = std::max(node_[2 * i], node_[2 * i + 1]); }

  std::size_t width_;  // leaf count, a power of two
  std::vector<std::uint64_t> node_;
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
  // (head/next chains ending at kUnreachable).
  std::vector<NodeId> label(n);
  std::vector<std::uint32_t> comp_size(n, 1);
  std::vector<NodeId> list_head(n);
  std::vector<NodeId> list_tail(n);
  std::vector<NodeId> list_next(n, kUnreachable);
  for (NodeId v = 0; v < n; ++v) label[v] = list_head[v] = list_tail[v] = v;
  std::vector<bool> is_broker(n, false);  // graph-id space
  std::uint32_t largest = 0;

  // Exact anchor-factored gains (see maxsg.hpp), indexed by candidate slot
  // c = ORIGINAL id:
  //   gain(c) = rest[c] + (adj[c] ? size(anchor) : 0)
  // rest[c] sums the distinct non-anchor components of N[c]; adj[c] says
  // N[c] meets the anchor. trees[b] holds the candidates with adj == b.
  // Before the first pick every component is a singleton and neighbour lists
  // hold no duplicates or self-loops, so rest = |N[c]| = 1 + deg.
  std::vector<std::uint32_t> rest(n);
  std::vector<std::uint8_t> adj(n, 0);
  std::array<MaxTree, 2> trees{MaxTree(n), MaxTree(n)};
  for (NodeId c = 0; c < n; ++c) {
    rest[c] = 1 + g.degree(ren ? ren->to_new(c) : c);
    trees[0].set(c, MaxTree::key(rest[c], c));
  }
  trees[0].build();
  std::array<std::vector<NodeId>, 2> changed;  // leaf slots written this pick
  NodeId anchor_rep = kUnreachable;  // any vertex of the anchor component

  // touch[u] (graph id) sums, over one pick, the sizes of the merged
  // non-anchor components that N[u] meets; `touched` lists each u with
  // touch[u] > 0 once. stamp dedups the star's labels and, per walked
  // component, the vertices it reaches: labels are vertex ids, and every
  // dedup takes a fresh epoch, so one array serves both.
  std::vector<std::uint32_t> touch(n, 0);
  std::vector<NodeId> touched;
  std::vector<std::uint32_t> stamp(n, 0);
  std::uint32_t epoch = 0;
  const auto bump = [&] {
    if (++epoch == 0) {  // wrap: re-zero once per ~4B dedups
      std::fill(stamp.begin(), stamp.end(), 0u);
      epoch = 1;
    }
  };
  std::vector<NodeId> star_labels;

  while (result.brokers.size() < k) {
    BSR_COUNT(MaxsgRounds);
    const NodeId anchor =
        anchor_rep == kUnreachable ? kUnreachable : label[anchor_rep];
    const std::uint32_t anchor_size = anchor == kUnreachable ? 0 : comp_size[anchor];

    // Argmax: the better of the two tree tops. Equal gains go to the lower
    // ORIGINAL id, so neither renumbering nor the thread count can change a
    // pick. Every candidate's gain is at least 1 (its own component), so a
    // gain of 0 marks an empty tree.
    const std::uint64_t top0 = trees[0].top();
    const std::uint64_t top1 = trees[1].top();
    if (top0 == 0 && top1 == 0) break;
    const std::uint32_t gain0 = MaxTree::rest_of(top0);
    const std::uint32_t gain1 = top1 == 0 ? 0 : MaxTree::rest_of(top1) + anchor_size;
    const NodeId best =
        gain1 > gain0 || (gain1 == gain0 && MaxTree::slot_of(top1) < MaxTree::slot_of(top0))
            ? MaxTree::slot_of(top1)
            : MaxTree::slot_of(top0);

    const NodeId w_best = ren ? ren->to_new(best) : best;
    is_broker[w_best] = true;
    result.brokers.add(best);  // original id
    trees[adj[best]].set(best, 0);
    changed[adj[best]].push_back(best);

    // Distinct components of the star {w_best} ∪ N(w_best), pre-merge.
    bump();
    star_labels.clear();
    const NodeId lw = label[w_best];
    stamp[lw] = epoch;
    star_labels.push_back(lw);
    for (const NodeId v : g.neighbors(w_best)) {
      const NodeId l = label[v];
      if (stamp[l] != epoch) {
        stamp[l] = epoch;
        star_labels.push_back(l);
      }
    }
    const bool involves_anchor = anchor != kUnreachable && stamp[anchor] == epoch;

    // Delta walk, BEFORE the merge below so each chain still enumerates
    // exactly one pre-merge component. A candidate's gain changes only if
    // N[u] meets a merged *non-anchor* component: the anchor never shrinks
    // and its size is read fresh at the argmax. A one-component star changes
    // no gain — it is the anchor, a component that keeps its size, or an
    // isolated first pick, which only its own star meets.
    if (star_labels.size() >= 2) {
      for (const NodeId l : star_labels) {
        if (l == anchor) continue;
        bump();
        const std::uint32_t size = comp_size[l];
        const auto reach = [&](NodeId u) {
          if (is_broker[u] || stamp[u] == epoch) return;
          stamp[u] = epoch;
          if (touch[u] == 0) touched.push_back(u);
          touch[u] += size;
        };
        for (NodeId m = list_head[l]; m != kUnreachable; m = list_next[m]) {
          reach(m);
          for (const NodeId nb : g.neighbors(m)) reach(nb);
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
    // component would invalidate every adj bit.
    const bool into_anchor = anchor_rep == kUnreachable || involves_anchor;
    if (into_anchor) anchor_rep = w_best;

    // Apply the deltas. Into the anchor, the touched components leave every
    // rest and the candidate joins the anchor-adjacent tree. Elsewhere, they
    // are replaced by the one merged component.
    const std::uint32_t merged_size = comp_size[into];
    for (const NodeId u : touched) {
      const NodeId c = ren ? ren->to_old(u) : u;
      if (into_anchor) {
        rest[c] -= touch[u];
        if (adj[c] == 0) {
          adj[c] = 1;
          trees[0].set(c, 0);
          changed[0].push_back(c);
        }
      } else {
        rest[c] += merged_size - touch[u];
      }
      touch[u] = 0;
      trees[adj[c]].set(c, MaxTree::key(rest[c], c));
      changed[adj[c]].push_back(c);
    }
    BSR_COUNT_N(MaxsgGainEvals, touched.size());
    touched.clear();
    for (std::size_t t = 0; t < 2; ++t) {
      std::sort(changed[t].begin(), changed[t].end());
      trees[t].refresh(changed[t]);
      changed[t].clear();
    }

    largest = std::max(largest, comp_size[into]);
    result.component_curve.push_back(largest);

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
