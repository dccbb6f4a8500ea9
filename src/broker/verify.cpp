#include "broker/verify.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "broker/coverage.hpp"
#include "graph/rollback_union_find.hpp"

namespace bsr::broker {

using bsr::graph::CsrGraph;
using bsr::graph::NodeId;

bool is_dominating_path(const CsrGraph& g, const BrokerSet& b,
                        std::span<const NodeId> path) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const NodeId u = path[i];
    const NodeId v = path[i + 1];
    if (u >= g.num_vertices() || v >= g.num_vertices()) return false;
    if (!g.has_edge(u, v)) return false;
    if (!b.dominates_edge(u, v)) return false;
  }
  return true;
}

bool has_pairwise_guarantee(const CsrGraph& g, const BrokerSet& b) {
  if (b.empty()) return true;  // vacuous: B ∪ N(B) pairs need B non-empty
  // Rollback flavor: find() is const, so the component scan below can't
  // mutate the forest out from under the covered bitmap pass.
  bsr::graph::RollbackUnionFind uf(g.num_vertices());
  std::vector<bool> covered(g.num_vertices(), false);
  for (const NodeId u : b.members()) {
    covered[u] = true;
    for (const NodeId v : g.neighbors(u)) {
      covered[v] = true;
      uf.unite(u, v);
    }
  }
  // Guarantee holds iff all covered vertices share one dominated component.
  NodeId reference = bsr::graph::kUnreachable;
  for (NodeId v = 0; v < g.num_vertices(); ++v) {
    if (!covered[v]) continue;
    const NodeId root = uf.find(v);
    if (reference == bsr::graph::kUnreachable) {
      reference = root;
    } else if (root != reference) {
      return false;
    }
  }
  return true;
}

namespace {

constexpr std::uint32_t kBruteForceLimit = 22;

template <typename Admissible>
std::uint32_t brute_force_best(const CsrGraph& g, std::uint32_t k,
                               Admissible&& admissible) {
  const NodeId n = g.num_vertices();
  if (n > kBruteForceLimit) {
    throw std::invalid_argument("brute force: graph too large (> 22 vertices)");
  }
  std::uint32_t best = 0;
  const std::uint64_t limit = 1ull << n;
  std::vector<NodeId> members;
  for (std::uint64_t bits = 0; bits < limit; ++bits) {
    if (static_cast<std::uint32_t>(std::popcount(bits)) > k) continue;
    members.clear();
    for (NodeId v = 0; v < n; ++v) {
      if (bits & (1ull << v)) members.push_back(v);
    }
    const BrokerSet candidate(n, members);
    if (!admissible(candidate)) continue;
    best = std::max(best, coverage(g, candidate));
  }
  return best;
}

}  // namespace

std::uint32_t brute_force_mcb_optimum(const CsrGraph& g, std::uint32_t k) {
  return brute_force_best(g, k, [](const BrokerSet&) { return true; });
}

std::uint32_t brute_force_mcbg_optimum(const CsrGraph& g, std::uint32_t k) {
  return brute_force_best(
      g, k, [&g](const BrokerSet& b) { return has_pairwise_guarantee(g, b); });
}

// --- r-survivability --------------------------------------------------------

namespace {

std::uint64_t canonical_edge_key(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// Σ over DFS components of (size choose 2) in the dominated subgraph of the
/// vertices flagged in `broker`, skipping edges present in `dead_edges`.
std::uint64_t dominated_pairs_dfs(
    const CsrGraph& g, const std::vector<bool>& broker,
    const std::unordered_set<std::uint64_t>* dead_edges) {
  const NodeId n = g.num_vertices();
  std::vector<bool> seen(n, false);
  std::vector<NodeId> stack;
  std::uint64_t pairs = 0;
  for (NodeId s = 0; s < n; ++s) {
    if (seen[s]) continue;
    std::uint64_t size = 0;
    seen[s] = true;
    stack.push_back(s);
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      ++size;
      for (const NodeId v : g.neighbors(u)) {
        if (seen[v]) continue;
        if (!broker[u] && !broker[v]) continue;
        if (dead_edges != nullptr &&
            dead_edges->contains(canonical_edge_key(u, v))) {
          continue;
        }
        seen[v] = true;
        stack.push_back(v);
      }
    }
    pairs += size * (size - 1) / 2;
  }
  return pairs;
}

}  // namespace

std::uint64_t brute_force_surviving_pairs(const CsrGraph& g, const BrokerSet& b,
                                          std::uint32_t r) {
  if (b.size() > kBruteForceLimit) {
    throw std::invalid_argument("brute force: broker set too large (> 22 members)");
  }
  if (b.size() <= r) return 0;  // the adversary can take down every broker
  const auto members = b.members();
  const std::uint64_t limit = 1ull << b.size();
  std::uint64_t worst = std::numeric_limits<std::uint64_t>::max();
  std::vector<bool> broker(g.num_vertices(), false);
  for (std::uint64_t bits = 0; bits < limit; ++bits) {
    if (static_cast<std::uint32_t>(std::popcount(bits)) != r) continue;
    std::fill(broker.begin(), broker.end(), false);
    for (std::size_t i = 0; i < members.size(); ++i) {
      if ((bits & (1ull << i)) == 0) broker[members[i]] = true;
    }
    worst = std::min(worst, dominated_pairs_dfs(g, broker, nullptr));
  }
  return worst;
}

std::uint64_t brute_force_group_surviving_pairs(
    const CsrGraph& g, const BrokerSet& b,
    std::span<const bsr::graph::FailureGroup> groups) {
  if (groups.empty()) {
    throw std::invalid_argument("brute force: no failure groups");
  }
  std::vector<bool> broker(g.num_vertices(), false);
  for (const NodeId m : b.members()) broker[m] = true;
  std::uint64_t worst = std::numeric_limits<std::uint64_t>::max();
  for (const bsr::graph::FailureGroup& group : groups) {
    std::unordered_set<std::uint64_t> dead;
    dead.reserve(group.edges.size());
    for (const bsr::graph::Edge& e : group.edges) {
      dead.insert(canonical_edge_key(e.u, e.v));
    }
    worst = std::min(worst, dominated_pairs_dfs(g, broker, &dead));
  }
  return worst;
}

std::uint64_t brute_force_robust_optimum(const CsrGraph& g, std::uint32_t k,
                                         std::uint32_t r) {
  const NodeId n = g.num_vertices();
  if (n > kBruteForceLimit) {
    throw std::invalid_argument("brute force: graph too large (> 22 vertices)");
  }
  std::uint64_t best = 0;
  const std::uint64_t limit = 1ull << n;
  std::vector<NodeId> members;
  for (std::uint64_t bits = 0; bits < limit; ++bits) {
    if (static_cast<std::uint32_t>(std::popcount(bits)) > k) continue;
    members.clear();
    for (NodeId v = 0; v < n; ++v) {
      if (bits & (1ull << v)) members.push_back(v);
    }
    const BrokerSet candidate(n, members);
    best = std::max(best, brute_force_surviving_pairs(g, candidate, r));
  }
  return best;
}

}  // namespace bsr::broker
