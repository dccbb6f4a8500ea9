#include "broker/robust.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

#include "broker/coverage.hpp"
#include "graph/engine.hpp"
#include "graph/rollback_union_find.hpp"
#include "obs/journal.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"

namespace bsr::broker {

using bsr::graph::CsrGraph;
using bsr::graph::FailureGroup;
using bsr::graph::FaultPlane;
using bsr::graph::NodeId;
using bsr::graph::RollbackUnionFind;

namespace engine = bsr::graph::engine;

namespace {

constexpr std::uint64_t kNoPairs = std::numeric_limits<std::uint64_t>::max();

inline std::uint64_t choose2(std::uint64_t s) noexcept { return s * (s - 1) / 2; }

/// Enumerates every scenario that excludes exactly `excl` of
/// members[idx..end) on one shared RollbackUnionFind: at each complete
/// scenario the stars of all *surviving* members are united and `visit()`
/// runs against that forest. Shared unite prefixes are done once — the
/// recursion checkpoints before a "keep member" branch and rolls back after,
/// so work is proportional to the DFS tree, not scenarios × |B|.
template <class Visit>
void enumerate_exclusions(const CsrGraph& g, RollbackUnionFind& uf,
                          std::span<const NodeId> members, std::size_t idx,
                          std::size_t excl, const Visit& visit) {
  BSR_DCHECK(members.size() - idx >= excl);
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

/// Candidate sweep over the covered set C = B ∪ N(B). Every union of every
/// scenario joins a surviving member to a neighbour, so a vertex outside C
/// is a singleton in every scenario of a round, and a component of two or
/// more lies inside C. Each candidate w keeps free_[w], the number of
/// vertices of N[w] outside C (each a distinct singleton: +1 to the merged
/// size, no pairs), and a list of N[w] ∩ C as indices into C; compact()
/// brings both up to date once per round, as C only grows. A sweep refreshes
/// roots and sizes for C alone and scores w as
///   base - Σ C(s, 2) + C(free_[w] + Σ s, 2)
/// over the distinct covered roots the list reaches: the full-graph formula
/// term for term, as integers. The candidate loop is sharded by index range
/// and each candidate's slot is written by exactly one shard, so results are
/// bit-identical at any BSR_THREADS; the stamp-dedup scratch is per shard.
class CandidateSweeper {
 public:
  explicit CandidateSweeper(const CsrGraph& g)
      : g_(g),
        dense_of_(g.num_vertices(), kUncovered),
        free_(g.num_vertices()),
        grow_(g.num_vertices(), 0),
        list_begin_(std::size_t{g.num_vertices()} + 1, 0) {
    for (NodeId w = 0; w < g.num_vertices(); ++w) free_[w] = g.degree(w) + 1;
    stamps_.resize(engine::plan_shards(g.num_vertices()));
    epochs_.assign(stamps_.size(), 0);
  }

  /// Covers N[m] of every member not yet covered (members only grow) and
  /// appends the newly covered vertices to the lists. A list only grows, by
  /// indices above all it holds, so it stays ascending. O(n + Σ |lists|)
  /// sequential moves plus the newly covered vertices' adjacency.
  void compact(std::span<const NodeId> members) {
    const std::size_t old_covered = covered_.size();
    for (; members_covered_ < members.size(); ++members_covered_) {
      const NodeId m = members[members_covered_];
      cover(m);
      for (const NodeId v : g_.neighbors(m)) cover(v);
    }
    const auto for_each_new = [&](const auto& visit) {
      for (std::size_t i = old_covered; i < covered_.size(); ++i) {
        const NodeId c = covered_[i];
        visit(c, static_cast<std::uint32_t>(i));
        for (const NodeId w : g_.neighbors(c)) visit(w, static_cast<std::uint32_t>(i));
      }
    };
    std::uint64_t added = 0;
    for_each_new([&](NodeId w, std::uint32_t) {
      ++grow_[w];
      ++added;
    });
    // Slide every list right by the growth of the lists before it, from the
    // back so no list is overwritten before it moves; each keeps grow_[w]
    // free slots at its end.
    const NodeId n = g_.num_vertices();
    std::uint64_t old_end = list_begin_[n];
    std::uint64_t new_end = old_end + added;
    list_.resize(new_end);
    for (NodeId w = n; w-- > 0;) {
      list_begin_[w + 1] = new_end;
      const std::uint64_t old_begin = list_begin_[w];
      const std::uint64_t new_begin = new_end - grow_[w] - (old_end - old_begin);
      for (std::uint64_t j = old_end; j-- > old_begin;) {
        list_[j + (new_begin - old_begin)] = list_[j];
      }
      free_[w] -= grow_[w];
      old_end = old_begin;
      new_end = new_begin;
    }
    // Fill the free slots in ascending index order; grow_ returns to zero.
    for_each_new([&](NodeId w, std::uint32_t i) {
      list_[list_begin_[w + 1] - grow_[w]--] = i;
    });
    root_.resize(covered_.size());
    size_.resize(covered_.size());
    for (auto& stamp : stamps_) stamp.resize(covered_.size(), 0);
  }

  /// For every non-broker w, the connected-pair count of the scenario forest
  /// after uniting w's admitted star. Candidates in `rescan` (sorted) may
  /// have lost edges to the scenario and are scored through `admit` on their
  /// full adjacency; every other candidate's edges must all be up. take_min
  /// folds into target via min (scenario sweeps); otherwise overwrites (the
  /// no-failure sweep).
  template <class Filter>
  void sweep(const RollbackUnionFind& uf, const std::vector<bool>& is_broker,
             std::span<const NodeId> rescan, Filter admit, bool take_min,
             std::vector<std::uint64_t>& target) {
    for (std::size_t i = 0; i < covered_.size(); ++i) {
      root_[i] = dense_of_[uf.find(covered_[i])];
      BSR_DCHECK(root_[i] != kUncovered);
    }
    for (std::size_t i = 0; i < covered_.size(); ++i) {
      if (root_[i] == i) size_[i] = uf.root_size(covered_[i]);
    }
    const std::uint64_t base = uf.connected_pairs();
    const NodeId n = g_.num_vertices();
    engine::for_each_shard(n, [&](std::size_t shard, std::size_t begin,
                                  std::size_t end) {
      std::vector<std::uint32_t>& stamp = stamps_[shard];
      std::uint32_t& epoch = epochs_[shard];
      if (epoch >= std::numeric_limits<std::uint32_t>::max() - n - 1) {
        std::fill(stamp.begin(), stamp.end(), 0u);
        epoch = 0;
      }
      std::uint64_t merged = 0;
      std::uint64_t unmerged_pairs = 0;
      const auto join = [&](std::uint32_t r) {
        if (stamp[r] != epoch) {
          stamp[r] = epoch;
          merged += size_[r];
          unmerged_pairs += choose2(size_[r]);
        }
      };
      // A vertex outside C is its own singleton root.
      const auto join_vertex = [&](NodeId v) {
        if (dense_of_[v] == kUncovered) {
          ++merged;
        } else {
          join(root_[dense_of_[v]]);
        }
      };
      auto next_rescan = std::lower_bound(rescan.begin(), rescan.end(), begin);
      for (std::size_t wi = begin; wi < end; ++wi) {
        const auto w = static_cast<NodeId>(wi);
        const bool scan = next_rescan != rescan.end() && *next_rescan == w;
        if (scan) ++next_rescan;
        if (is_broker[w]) continue;
        ++epoch;
        unmerged_pairs = 0;
        if (scan) {
          merged = 0;
          join_vertex(w);
          const auto nbrs = g_.neighbors(w);
          for (std::size_t i = 0; i < nbrs.size(); ++i) {
            if (admit(w, i, nbrs[i])) join_vertex(nbrs[i]);
          }
        } else {
          merged = free_[w];
          for (std::uint64_t j = list_begin_[w]; j < list_begin_[w + 1]; ++j) {
            join(root_[list_[j]]);
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
  static constexpr std::uint32_t kUncovered =
      std::numeric_limits<std::uint32_t>::max();

  void cover(NodeId v) {
    if (dense_of_[v] != kUncovered) return;
    dense_of_[v] = static_cast<std::uint32_t>(covered_.size());
    covered_.push_back(v);
  }

  const CsrGraph& g_;
  std::size_t members_covered_ = 0;
  std::vector<NodeId> covered_;           // C, in the order it was covered
  std::vector<std::uint32_t> dense_of_;   // vertex -> index into C
  std::vector<std::uint32_t> free_;       // |N[w] \ C|
  std::vector<std::uint32_t> grow_;       // list growth of this compaction
  std::vector<std::uint64_t> list_begin_;  // CSR offsets of the covered lists
  std::vector<std::uint32_t> list_;       // N[w] ∩ C as indices into C
  std::vector<std::uint32_t> root_;       // per index into C: its root's index
  std::vector<std::uint32_t> size_;       // per root index: component size
  std::vector<std::vector<std::uint32_t>> stamps_;  // per shard, per index
  std::vector<std::uint32_t> epochs_;
};

/// Sorted, deduplicated endpoints of a group's edges: the only vertices
/// whose adjacency the group can change.
std::vector<NodeId> group_endpoints(const FailureGroup& group) {
  std::vector<NodeId> out;
  out.reserve(2 * group.edges.size());
  for (const auto& e : group.edges) {
    out.push_back(e.u);
    out.push_back(e.v);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

RobustResult robust_maxsg(const CsrGraph& g, std::uint32_t k,
                          const RobustOptions& options) {
  BSR_SPAN("broker.robust");
  const NodeId n = g.num_vertices();
  if (n == 0) throw std::invalid_argument("robust_maxsg: empty graph");
  if (options.mode == RobustMode::kBrokerFailures && options.redundancy == 0) {
    throw std::invalid_argument("robust_maxsg: redundancy must be >= 1");
  }
  if (options.mode == RobustMode::kFailureGroups && options.groups.empty()) {
    throw std::invalid_argument("robust_maxsg: kFailureGroups needs failure groups");
  }

  RobustResult result;
  result.brokers = BrokerSet(n);
  if (k == 0) return result;

  const std::uint32_t r = options.redundancy;
  RollbackUnionFind uf(n);
  CandidateSweeper sweeper(g);
  std::optional<FaultPlane> plane;
  std::vector<std::vector<NodeId>> endpoints;  // per group
  if (options.mode == RobustMode::kFailureGroups) {
    plane.emplace(g);
    endpoints.reserve(options.groups.size());
    for (const FailureGroup& group : options.groups) {
      endpoints.push_back(group_endpoints(group));
    }
  }

  std::vector<bool> is_broker(n, false);
  std::vector<NodeId> members;
  members.reserve(k);
  std::vector<std::uint64_t> worst(n), full(n);
  std::uint64_t prev_worst = 0;  // adversary's optimum vs the current set
  std::uint64_t prev_full = 0;   // no-failure pairs of the current set

  while (members.size() < k) {
    BSR_COUNT(RobustRounds);
    const std::span<const NodeId> mspan(members);
    sweeper.compact(mspan);

    // No-failure sweep: pairs(B ∪ {w}) for every candidate — the secondary
    // objective that bootstraps the selection while |B| is still below the
    // redundancy level (where the worst case is identically zero).
    std::uint64_t current_full = 0;
    enumerate_exclusions(g, uf, mspan, 0, 0, [&] {
      BSR_COUNT(RobustScenarios);
      current_full = uf.connected_pairs();
      sweeper.sweep(uf, is_broker, {}, engine::AllEdges{}, false, full);
    });
    BSR_COUNT_N(RobustGainEvals, n - members.size());

    if (options.mode == RobustMode::kBrokerFailures) {
      if (members.size() + 1 <= r) {
        // Any r failures can take down the whole candidate set.
        std::fill(worst.begin(), worst.end(), 0);
      } else {
        std::fill(worst.begin(), worst.end(), kNoPairs);
        // Scenarios not containing the candidate: r failures among B, then
        // the candidate's star joins the survivors.
        enumerate_exclusions(g, uf, mspan, 0, r, [&] {
          BSR_COUNT(RobustScenarios);
          sweeper.sweep(uf, is_broker, {}, engine::AllEdges{}, true, worst);
          BSR_COUNT_N(RobustGainEvals, n - members.size());
        });
        // Scenarios containing the candidate: the candidate itself plus any
        // r-1 members fail, leaving pairs(B \ F') — candidate-independent.
        std::uint64_t worst_without = kNoPairs;
        if (r == 1) {
          worst_without = current_full;
        } else {
          enumerate_exclusions(g, uf, mspan, 0, r - 1, [&] {
            BSR_COUNT(RobustScenarios);
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
      for (std::size_t gi = 0; gi < options.groups.size(); ++gi) {
        const FailureGroup& group = options.groups[gi];
        plane->fail_group(group);
        const RollbackUnionFind::Checkpoint mark = uf.checkpoint();
        for (const NodeId m : members) {
          if (plane->vertex_ok(m)) engine::unite_star(g, uf, m, admit);
        }
        BSR_COUNT(RobustScenarios);
        sweeper.sweep(uf, is_broker, endpoints[gi], admit, true, worst);
        BSR_COUNT_N(RobustGainEvals, n - members.size());
        uf.rollback(mark);
        plane->heal_group(group);
      }
    }

    // Deterministic argmax on (surviving pairs, nominal pairs, lowest id).
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
    if (best == bsr::graph::kUnreachable) break;  // every vertex is a broker
    // No candidate moves either pair objective — further picks are dead
    // weight, so the remaining budget stays unspent.
    if (best_worst == prev_worst && best_full == prev_full) break;

    is_broker[best] = true;
    members.push_back(best);
    result.brokers.add(best);
    result.surviving_curve.push_back(best_worst);
    prev_worst = best_worst;
    prev_full = best_full;
    BSR_EVENT_NOW(SelectionRobustPick, best, best_worst);
  }

  result.surviving_pairs = prev_worst;
  result.nominal_pairs = prev_full;
  result.coverage = coverage(g, result.brokers);
  return result;
}

std::uint64_t worst_case_surviving_pairs(const CsrGraph& g, const BrokerSet& b,
                                         std::uint32_t r) {
  if (b.num_vertices() != g.num_vertices()) {
    throw std::invalid_argument("worst_case_surviving_pairs: size mismatch");
  }
  if (b.size() <= r) return 0;  // the adversary can fail every broker
  RollbackUnionFind uf(g.num_vertices());
  std::uint64_t worst = kNoPairs;
  enumerate_exclusions(g, uf, b.members(), 0, r, [&] {
    BSR_COUNT(RobustScenarios);
    worst = std::min(worst, uf.connected_pairs());
  });
  return worst;
}

std::uint64_t worst_case_surviving_pairs(const CsrGraph& g, const BrokerSet& b,
                                         std::span<const FailureGroup> groups) {
  if (b.num_vertices() != g.num_vertices()) {
    throw std::invalid_argument("worst_case_surviving_pairs: size mismatch");
  }
  if (groups.empty()) {
    throw std::invalid_argument("worst_case_surviving_pairs: no failure groups");
  }
  FaultPlane plane(g);
  RollbackUnionFind uf(g.num_vertices());
  const engine::FaultAwareFilter admit{&plane};
  std::uint64_t worst = kNoPairs;
  for (const FailureGroup& group : groups) {
    plane.fail_group(group);
    const RollbackUnionFind::Checkpoint mark = uf.checkpoint();
    for (const NodeId m : b.members()) {
      if (plane.vertex_ok(m)) engine::unite_star(g, uf, m, admit);
    }
    BSR_COUNT(RobustScenarios);
    worst = std::min(worst, uf.connected_pairs());
    uf.rollback(mark);
    plane.heal_group(group);
  }
  return worst;
}

}  // namespace bsr::broker
