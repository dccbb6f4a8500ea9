#include "checks.hpp"

#include <algorithm>
#include <deque>
#include <numeric>
#include <vector>

namespace bsr::perfbench {

using bsr::graph::NodeId;
using bsr::sim::AnswerStatus;
using bsr::sim::RouteAnswer;

void CheckResult::fail(const std::string& what) {
  ++checked;
  ++failed;
  if (first_error.empty()) first_error = what;
}

void CheckResult::merge(const CheckResult& other) {
  checked += other.checked;
  failed += other.failed;
  if (first_error.empty()) first_error = other.first_error;
}

namespace {

/// Union-find with path halving and union by size; independent of
/// graph::RollbackUnionFind.
class PlainUnionFind {
 public:
  explicit PlainUnionFind(std::uint32_t n);
  std::uint32_t find(std::uint32_t v) noexcept;
  void unite(std::uint32_t a, std::uint32_t b) noexcept;
  [[nodiscard]] std::uint32_t size_of(std::uint32_t v) noexcept { return size_[find(v)]; }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
};

PlainUnionFind::PlainUnionFind(std::uint32_t n) : parent_(n), size_(n, 1) {
  std::iota(parent_.begin(), parent_.end(), 0U);
}

std::uint32_t PlainUnionFind::find(std::uint32_t v) noexcept {
  while (parent_[v] != v) {
    parent_[v] = parent_[parent_[v]];
    v = parent_[v];
  }
  return v;
}

void PlainUnionFind::unite(std::uint32_t a, std::uint32_t b) noexcept {
  a = find(a);
  b = find(b);
  if (a == b) return;
  if (size_[a] < size_[b]) std::swap(a, b);
  parent_[b] = a;
  size_[a] += size_[b];
}

bool is_down(std::span<const std::uint8_t> down, NodeId v) {
  return !down.empty() && down[v] != 0;
}

bool usable(const bsr::broker::BrokerSet& b, std::span<const std::uint8_t> down,
            NodeId u, NodeId v) {
  return (b.contains(u) || b.contains(v)) && !is_down(down, u) && !is_down(down, v);
}

/// Union-find over the usable dominated edges: an edge is usable when one
/// endpoint is a broker and neither endpoint is down. `down` is indexed by
/// vertex; empty means nothing is down.
PlainUnionFind dominated_components(const bsr::graph::CsrGraph& g,
                                    const bsr::broker::BrokerSet& b,
                                    std::span<const std::uint8_t> down) {
  PlainUnionFind uf(g.num_vertices());
  for (NodeId u = 0; u < g.num_vertices(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (u < v && usable(b, down, u, v)) uf.unite(u, v);
    }
  }
  return uf;
}

/// Hop distance from src to dst over usable dominated edges, or
/// graph::kUnreachable.
std::uint32_t dominated_distance(const bsr::graph::CsrGraph& g,
                                 const bsr::broker::BrokerSet& b,
                                 std::span<const std::uint8_t> down, NodeId src,
                                 NodeId dst) {
  if (is_down(down, src) || is_down(down, dst)) return bsr::graph::kUnreachable;
  if (src == dst) return 0;
  std::vector<std::uint32_t> dist(g.num_vertices(), bsr::graph::kUnreachable);
  std::deque<NodeId> queue{src};
  dist[src] = 0;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (const NodeId v : g.neighbors(u)) {
      if (dist[v] != bsr::graph::kUnreachable || !usable(b, down, u, v)) continue;
      dist[v] = dist[u] + 1;
      if (v == dst) return dist[v];
      queue.push_back(v);
    }
  }
  return bsr::graph::kUnreachable;
}

}  // namespace

CheckResult check_maxsg(const bsr::graph::CsrGraph& g,
                        const bsr::broker::MaxSgResult& r) {
  CheckResult out;
  const NodeId n = g.num_vertices();
  std::vector<std::uint8_t> covered(n, 0);
  for (const NodeId u : r.brokers.members()) {
    covered[u] = 1;
    for (const NodeId v : g.neighbors(u)) covered[v] = 1;
  }
  const auto coverage = static_cast<std::uint32_t>(
      std::count(covered.begin(), covered.end(), std::uint8_t{1}));
  if (coverage == r.coverage) {
    out.pass();
  } else {
    out.fail("maxsg coverage " + std::to_string(r.coverage) + " != recomputed " +
             std::to_string(coverage));
  }
  PlainUnionFind uf = dominated_components(g, r.brokers, {});
  std::uint32_t largest = 0;
  for (NodeId v = 0; v < n; ++v) largest = std::max(largest, uf.size_of(v));
  if (largest == r.final_component) {
    out.pass();
  } else {
    out.fail("maxsg final_component " + std::to_string(r.final_component) +
             " != recomputed " + std::to_string(largest));
  }
  return out;
}

CheckResult check_robust(const bsr::graph::CsrGraph& g,
                         const bsr::broker::RobustResult& r,
                         std::uint32_t redundancy) {
  CheckResult out;
  const std::uint64_t worst =
      bsr::broker::worst_case_surviving_pairs(g, r.brokers, redundancy);
  if (worst == r.surviving_pairs) {
    out.pass();
  } else {
    out.fail("robust surviving_pairs " + std::to_string(r.surviving_pairs) +
             " != worst_case_surviving_pairs " + std::to_string(worst));
  }
  return out;
}

CheckResult check_answers(const bsr::graph::CsrGraph& g,
                          const bsr::broker::BrokerSet& b,
                          std::span<const std::uint8_t> down,
                          std::span<const bsr::sim::Flow> flows,
                          std::span<const RouteAnswer> answers,
                          std::span<const std::size_t> dist_sample) {
  CheckResult out;
  if (flows.size() != answers.size()) {
    out.fail("answer count " + std::to_string(answers.size()) + " != query count " +
             std::to_string(flows.size()));
    return out;
  }
  PlainUnionFind uf = dominated_components(g, b, down);
  const auto answered = [](const RouteAnswer& a) {
    return a.status == AnswerStatus::kFresh || a.status == AnswerStatus::kStaleServed;
  };
  for (std::size_t i = 0; i < answers.size(); ++i) {
    if (!answered(answers[i])) continue;
    const NodeId s = flows[i].src;
    const NodeId t = flows[i].dst;
    const bool truth = !is_down(down, s) && !is_down(down, t) && uf.find(s) == uf.find(t);
    if (answers[i].reachable == truth) {
      out.pass();
    } else {
      out.fail("query " + std::to_string(i) + " (" + std::to_string(s) + "->" +
               std::to_string(t) + ") reachable=" +
               std::to_string(answers[i].reachable) + " but union-find says " +
               std::to_string(truth));
    }
  }
  for (const std::size_t i : dist_sample) {
    if (i >= answers.size() || !answered(answers[i]) || !answers[i].reachable ||
        answers[i].dist_bound == bsr::graph::kUnreachable) {
      continue;
    }
    const std::uint32_t d = dominated_distance(g, b, down, flows[i].src, flows[i].dst);
    if (answers[i].dist_bound >= d) {
      out.pass();
    } else {
      out.fail("query " + std::to_string(i) + " dist_bound " +
               std::to_string(answers[i].dist_bound) + " < BFS distance " +
               std::to_string(d));
    }
  }
  return out;
}

CheckResult check_audit(std::span<const RouteAnswer> live,
                        std::span<const RouteAnswer> scratch, bool exact) {
  CheckResult out;
  if (live.size() != scratch.size()) {
    out.fail("audit answer counts differ");
    return out;
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    const RouteAnswer& a = live[i];
    const RouteAnswer& s = scratch[i];
    if (a.status != AnswerStatus::kFresh) continue;
    const bool match = s.status == AnswerStatus::kFresh && a.reachable == s.reachable &&
                       (!exact || (a.dist_bound == s.dist_bound && a.next_hop == s.next_hop));
    if (match) {
      out.pass();
    } else {
      out.fail("audited fresh answer " + std::to_string(i) +
               " differs from a from-scratch build (reachable " +
               std::to_string(a.reachable) + " vs " + std::to_string(s.reachable) +
               ", dist " + std::to_string(a.dist_bound) + " vs " +
               std::to_string(s.dist_bound) + ")");
    }
  }
  return out;
}

CheckResult check_churn_bounds(const bsr::sim::RouteServiceStats& stats,
                               std::uint64_t max_stale, std::uint64_t journal_dropped,
                               std::uint64_t malformed_episodes) {
  CheckResult out;
  if (stats.max_stale_served <= max_stale) {
    out.pass();
  } else {
    out.fail("served an answer " + std::to_string(stats.max_stale_served) +
             " events stale (bound " + std::to_string(max_stale) + ")");
  }
  if (journal_dropped == 0) {
    out.pass();
  } else {
    out.fail("journal dropped " + std::to_string(journal_dropped) + " events");
  }
  if (malformed_episodes == 0) {
    out.pass();
  } else {
    out.fail("episode report has " + std::to_string(malformed_episodes) +
             " malformed episodes");
  }
  return out;
}

CheckResult check_churn_coverage(const bsr::sim::RouteServiceStats& t) {
  CheckResult out;
  const bool covered = t.fresh > 0 && t.stale_served > 0 && t.refused > 0 && t.shedded > 0 &&
                       t.patches > 0 && t.rebuilds_discarded > 0;
  if (covered) {
    out.pass();
  } else {
    out.fail("the churn schedule missed an answer tag, a patch or a discarded rebuild");
  }
  return out;
}

}  // namespace bsr::perfbench
