#include "topology/internet.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "graph/graph_builder.hpp"

namespace bsr::topology {

using bsr::graph::CsrGraph;
using bsr::graph::Edge;
using bsr::graph::GraphBuilder;
using bsr::graph::NodeId;
using bsr::graph::Rng;

InternetConfig InternetConfig::scaled(double factor) const {
  if (factor < 1e-4 || factor > 10.0) {
    throw std::invalid_argument("InternetConfig::scaled: factor out of [1e-4, 10]");
  }
  InternetConfig out = *this;
  const auto scale_u32 = [factor](std::uint32_t value, std::uint32_t minimum) {
    return std::max<std::uint32_t>(
        minimum, static_cast<std::uint32_t>(std::llround(value * factor)));
  };
  out.num_ases = scale_u32(num_ases, 64);
  out.num_ixps = scale_u32(num_ixps, 3);
  out.target_as_edges = std::max<std::uint64_t>(
      out.num_ases, static_cast<std::uint64_t>(std::llround(
                        static_cast<double>(target_as_edges) * factor)));
  out.target_ixp_memberships = std::max<std::uint64_t>(
      2 * out.num_ixps, static_cast<std::uint64_t>(std::llround(
                            static_cast<double>(target_ixp_memberships) * factor)));
  return out;
}

void InternetConfig::validate() const {
  if (num_ases < 16) throw std::invalid_argument("InternetConfig: too few ASes");
  if (num_ixps < 1) throw std::invalid_argument("InternetConfig: need >= 1 IXP");
  if (ixp_participation <= 0.0 || ixp_participation > 1.0) {
    throw std::invalid_argument("InternetConfig: ixp_participation out of (0, 1]");
  }
  if (tier1_fraction < 0 || tier2_fraction < 0 || tier3_fraction < 0 ||
      tier1_fraction + tier2_fraction + tier3_fraction >= 1.0) {
    throw std::invalid_argument("InternetConfig: bad tier fractions");
  }
  if (stub_content_fraction < 0 || stub_transit_fraction < 0 ||
      stub_content_fraction + stub_transit_fraction > 1.0) {
    throw std::invalid_argument("InternetConfig: bad stub type fractions");
  }
  if (isolated_fraction < 0.0 || isolated_fraction > 0.2) {
    throw std::invalid_argument("InternetConfig: isolated_fraction out of [0, 0.2]");
  }
  if (ixp_peering_prob < 0.0 || ixp_peering_prob > 1.0) {
    throw std::invalid_argument("InternetConfig: ixp_peering_prob out of [0, 1]");
  }
  const std::uint64_t max_edges =
      static_cast<std::uint64_t>(num_ases) * (num_ases - 1) / 2;
  if (target_as_edges > max_edges) {
    throw std::invalid_argument("InternetConfig: target_as_edges exceeds complete graph");
  }
}

namespace {

/// Accumulates unique canonical edges with parallel relationship labels.
class EdgeAccumulator {
 public:
  explicit EdgeAccumulator(NodeId n) : n_(n) { seen_.reserve(1 << 20); }

  /// Returns true if the edge was new.
  bool add(NodeId u, NodeId v, EdgeRel rel_from_canonical) {
    if (u == v) return false;
    if (u > v) {
      std::swap(u, v);
      rel_from_canonical = reversed(rel_from_canonical);  // canonicalizing flips it
    }
    const std::uint64_t key = (static_cast<std::uint64_t>(u) << 32) | v;
    if (!seen_.insert(key).second) return false;
    edges_.push_back(Edge{u, v});
    rels_.push_back(rel_from_canonical);
    return true;
  }

  /// Adds a provider->customer edge (provider sells transit to customer).
  /// add() interprets the label relative to its argument order and flips it
  /// when canonicalizing.
  bool add_transit(NodeId provider, NodeId customer) {
    return add(provider, customer, EdgeRel::kUProviderOfV);
  }

  bool add_peer(NodeId u, NodeId v) { return add(u, v, EdgeRel::kPeer); }

  [[nodiscard]] bool has(NodeId u, NodeId v) const {
    if (u > v) std::swap(u, v);
    return seen_.contains((static_cast<std::uint64_t>(u) << 32) | v);
  }

  [[nodiscard]] std::size_t count() const noexcept { return edges_.size(); }

  /// Sorts edges canonically, keeping rels aligned.
  void finalize() {
    std::vector<std::size_t> order(edges_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
      return edges_[a] < edges_[b];
    });
    std::vector<Edge> edges_sorted(edges_.size());
    std::vector<EdgeRel> rels_sorted(rels_.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      edges_sorted[i] = edges_[order[i]];
      rels_sorted[i] = rels_[order[i]];
    }
    edges_ = std::move(edges_sorted);
    rels_ = std::move(rels_sorted);
  }

  [[nodiscard]] const std::vector<Edge>& edges() const noexcept { return edges_; }
  [[nodiscard]] const std::vector<EdgeRel>& rels() const noexcept { return rels_; }

 private:
  NodeId n_;
  std::unordered_set<std::uint64_t> seen_;
  std::vector<Edge> edges_;
  std::vector<EdgeRel> rels_;
};

/// Degree-proportional sampling pool: a node appears once per incident edge
/// (plus one seed entry), so uniform draws are preferential-attachment draws.
class AttachmentPool {
 public:
  void seed(NodeId v) { pool_.push_back(v); }
  void credit(NodeId v) { pool_.push_back(v); }
  [[nodiscard]] bool empty() const noexcept { return pool_.empty(); }
  [[nodiscard]] NodeId draw(Rng& rng) const { return pool_[rng.uniform(pool_.size())]; }

 private:
  std::vector<NodeId> pool_;
};

}  // namespace

CsrGraph InternetTopology::as_only_graph() const {
  GraphBuilder builder(num_ases);
  for (NodeId u = 0; u < num_ases; ++u) {
    for (const NodeId v : graph.neighbors(u)) {
      if (u < v && v < num_ases) builder.add_edge(u, v);
    }
  }
  return builder.build();
}

double InternetTopology::ixp_attachment_rate() const {
  if (num_ases == 0) return 0.0;
  std::uint32_t attached = 0;
  for (NodeId v = 0; v < num_ases; ++v) {
    for (const NodeId w : graph.neighbors(v)) {
      if (is_ixp(w)) {
        ++attached;
        break;
      }
    }
  }
  return static_cast<double>(attached) / static_cast<double>(num_ases);
}

std::vector<bsr::graph::FailureGroup> ixp_failure_groups(const InternetTopology& topo) {
  std::vector<bsr::graph::FailureGroup> groups;
  groups.reserve(topo.num_ixps);
  for (NodeId v = topo.num_ases; v < topo.num_vertices(); ++v) {
    groups.push_back(bsr::graph::incident_group(topo.graph, v));
  }
  return groups;
}

InternetTopology make_internet(const InternetConfig& config) {
  config.validate();
  Rng rng(config.seed);

  const NodeId n_as = config.num_ases;
  const NodeId n_ixp = config.num_ixps;
  const NodeId n = n_as + n_ixp;

  // --- Tier assignment (low ids = higher tiers; deterministic). -----------
  const auto t1 = std::max<NodeId>(4, static_cast<NodeId>(
                                          std::llround(n_as * config.tier1_fraction)));
  const auto t2 = std::max<NodeId>(
      8, static_cast<NodeId>(std::llround(n_as * config.tier2_fraction)));
  const auto t3 = std::max<NodeId>(
      16, static_cast<NodeId>(std::llround(n_as * config.tier3_fraction)));
  if (static_cast<std::uint64_t>(t1) + t2 + t3 >= n_as) {
    throw std::invalid_argument("make_internet: tier counts exceed AS count");
  }
  const NodeId tier1_end = t1;
  const NodeId tier2_end = t1 + t2;
  const NodeId tier3_end = t1 + t2 + t3;

  std::vector<NodeMeta> meta(n);
  for (NodeId v = 0; v < n_as; ++v) {
    if (v < tier1_end) {
      meta[v] = NodeMeta{NodeType::kTransitAccess, Tier::kTier1};
    } else if (v < tier2_end) {
      meta[v] = NodeMeta{NodeType::kTransitAccess, Tier::kTier2};
    } else if (v < tier3_end) {
      meta[v] = NodeMeta{NodeType::kTransitAccess, Tier::kTier3};
    } else {
      const double roll = rng.uniform01();
      NodeType type = NodeType::kEnterprise;
      if (roll < config.stub_content_fraction) {
        type = NodeType::kContent;
      } else if (roll < config.stub_content_fraction + config.stub_transit_fraction) {
        type = NodeType::kTransitAccess;
      }
      meta[v] = NodeMeta{type, Tier::kStub};
    }
  }
  for (NodeId v = n_as; v < n; ++v) meta[v] = NodeMeta{NodeType::kIxp, Tier::kTierNone};

  // A small set of stub ASes stays off the giant component (see
  // InternetConfig::isolated_fraction) — they appear in the dataset but are
  // unreachable, capping saturated connectivity exactly as in the paper.
  std::vector<bool> isolated(n_as, false);
  {
    const auto isolated_count = static_cast<NodeId>(
        std::llround(n_as * config.isolated_fraction));
    NodeId marked = 0;
    while (marked < isolated_count) {
      const auto v = static_cast<NodeId>(
          tier3_end + rng.uniform(n_as - tier3_end));
      if (!isolated[v]) {
        isolated[v] = true;
        ++marked;
      }
    }
  }

  // Remote-region stubs: connected, but only through a uniformly chosen
  // tier-3 provider — no IXP membership, no dense peering. They form the
  // hard tail of the domination problem.
  std::vector<bool> remote(n_as, false);
  {
    const auto remote_count =
        static_cast<NodeId>(std::llround(n_as * config.remote_fraction));
    NodeId marked = 0;
    std::uint64_t guard = 0;
    while (marked < remote_count && guard < 50ull * n_as) {
      ++guard;
      const auto v =
          static_cast<NodeId>(tier3_end + rng.uniform(n_as - tier3_end));
      if (!isolated[v] && !remote[v]) {
        remote[v] = true;
        ++marked;
      }
    }
  }

  EdgeAccumulator acc(n);
  AttachmentPool pool_tier1, pool_tier2, pool_transit, pool_all_as;
  for (NodeId v = 0; v < tier1_end; ++v) pool_tier1.seed(v);
  for (NodeId v = tier1_end; v < tier2_end; ++v) pool_tier2.seed(v);
  for (NodeId v = 0; v < tier3_end; ++v) pool_transit.seed(v);
  for (NodeId v = 0; v < n_as; ++v) {
    if (!isolated[v] && !remote[v]) pool_all_as.seed(v);
  }

  std::vector<std::uint32_t> current_degree(n_as, 0);
  const auto credit = [&](NodeId v) {
    ++current_degree[v];
    pool_all_as.credit(v);
    if (v < tier1_end) pool_tier1.credit(v);
    if (v >= tier1_end && v < tier2_end) pool_tier2.credit(v);
    if (v < tier3_end) pool_transit.credit(v);
  };
  // Power-of-two-choices draw: sample two degree-proportional candidates and
  // keep the higher-degree one. This sharpens the tail towards the real
  // Internet's profile, where the top transit providers and IXPs reach
  // thousands of adjacencies (Hurricane/Cogent-class ASes, DE-CIX-class
  // IXPs) — which is what makes 100-broker sets cover > half the pairs.
  const auto draw_pref = [&](const AttachmentPool& pool) {
    const NodeId a = pool.draw(rng);
    const NodeId b = pool.draw(rng);
    NodeId best = current_degree[a] >= current_degree[b] ? a : b;
    // Interpolate between power-of-two and power-of-three choices: the
    // extra draw fires 40 % of the time, fitting Table 1's k=100 anchor
    // without overshooting the k=1000 one.
    if (rng.bernoulli(0.4)) {
      const NodeId c = pool.draw(rng);
      if (current_degree[c] > current_degree[best]) best = c;
    }
    return best;
  };
  // Connected, non-remote ASes for uniform peering draws.
  std::vector<NodeId> connected_ases;
  connected_ases.reserve(n_as);
  for (NodeId v = 0; v < n_as; ++v) {
    if (!isolated[v] && !remote[v]) connected_ases.push_back(v);
  }
  const auto add_transit_edge = [&](NodeId provider, NodeId customer) {
    if (acc.add_transit(provider, customer)) {
      credit(provider);
      credit(customer);
    }
  };
  const auto add_peer_edge = [&](NodeId u, NodeId v) {
    if (acc.add_peer(u, v)) {
      credit(u);
      credit(v);
    }
  };

  // --- Tier-1 clique (settlement-free peering at the top). ----------------
  for (NodeId u = 0; u < tier1_end; ++u) {
    for (NodeId v = u + 1; v < tier1_end; ++v) add_peer_edge(u, v);
  }

  // --- Tier-2: multihome to 2-4 tier-1 providers + sparse lateral peering.
  for (NodeId v = tier1_end; v < tier2_end; ++v) {
    const auto providers = 2 + rng.uniform(3);  // 2..4
    for (std::uint64_t i = 0; i < providers; ++i) {
      add_transit_edge(pool_tier1.draw(rng), v);
    }
    if (rng.bernoulli(0.6)) {
      const NodeId peer = pool_tier2.draw(rng);
      if (peer != v) add_peer_edge(v, peer);
    }
  }

  // --- Tier-3: 1-3 providers among tier-2 (preferential), 10 % also tier-1.
  for (NodeId v = tier2_end; v < tier3_end; ++v) {
    const auto providers = 1 + rng.uniform(3);  // 1..3
    for (std::uint64_t i = 0; i < providers; ++i) {
      add_transit_edge(pool_tier2.draw(rng), v);
    }
    if (rng.bernoulli(0.10)) add_transit_edge(pool_tier1.draw(rng), v);
  }

  // --- Stubs: providers among all transit, degree-preferential. Content
  // stubs multihome aggressively (CDNs chase path diversity).
  for (NodeId v = tier3_end; v < n_as; ++v) {
    if (isolated[v]) continue;
    if (remote[v]) {
      // Single-homed to a uniform tier-3 provider; credit() is skipped on
      // purpose so remote stubs never enter the preferential pools.
      const auto provider =
          static_cast<NodeId>(tier2_end + rng.uniform(tier3_end - tier2_end));
      acc.add_transit(provider, v);
      continue;
    }
    const bool content = meta[v].type == NodeType::kContent;
    const auto providers = content ? 2 + rng.uniform(3) : 1 + rng.uniform(2);
    for (std::uint64_t i = 0; i < providers; ++i) {
      add_transit_edge(pool_transit.draw(rng), v);
    }
    if (content) {
      // CDNs build open peering meshes: a heavy-tailed extra fan-out makes
      // some content networks broker-worthy (Table 5's YAHOO-class entries).
      const auto fanout = static_cast<std::uint64_t>(rng.pareto(0.9, 1.0, 250.0));
      for (std::uint64_t i = 0; i < fanout; ++i) {
        const NodeId peer = pool_all_as.draw(rng);
        if (peer != v) add_peer_edge(v, peer);
      }
    } else if (rng.bernoulli(0.02)) {
      // A few multi-site enterprises run their own moderate peering meshes
      // (the paper's alliance lists enterprise entries around rank ~440).
      const auto fanout = 1 + static_cast<std::uint64_t>(rng.pareto(1.2, 1.0, 80.0));
      for (std::uint64_t i = 0; i < fanout; ++i) {
        const NodeId peer = pool_all_as.draw(rng);
        if (peer != v) add_peer_edge(v, peer);
      }
    }
  }

  // --- Peering phase: fill the AS-AS edge budget with degree-preferential
  // p2p links (stands in for the dense IXP-derived peering mesh).
  const std::uint64_t budget = config.target_as_edges;
  std::uint64_t attempts = 0;
  const std::uint64_t max_attempts = 30 * budget + 1000;
  while (acc.count() < budget && attempts < max_attempts) {
    ++attempts;
    // One endpoint is a hub (route-server reality: members peer with the
    // big networks present everywhere), the other is uniform across the
    // population — this is what spreads hub adjacency over the stubs and
    // lets a 100-broker set reach half of all pairs (Table 1).
    const NodeId u = draw_pref(pool_all_as);
    // Mixture for the second endpoint: mostly uniform (route-server members
    // peering with the ubiquitous hubs), partly degree-weighted (bilateral
    // hub-hub peering). The 45/55 split fits the greedy coverage anchors of
    // Table 1 (~73 % at k=100, ~92 % at k=1000).
    const NodeId v = rng.bernoulli(0.62)
                         ? connected_ases[rng.uniform(connected_ases.size())]
                         : pool_all_as.draw(rng);
    if (u == v) continue;
    add_peer_edge(u, v);
  }

  // --- IXPs: heavy-tailed membership sizes over a participation pool. -----
  // Participants (exactly ixp_participation of the connected ASes): all
  // transit ASes plus random connected stubs. Every participant is assigned
  // at least one IXP (so the attachment rate matches the paper's 40.2 %
  // exactly); remaining membership slots are filled degree-preferentially
  // (large transit networks join many IXPs).
  const auto pool_size = std::max<NodeId>(
      2, static_cast<NodeId>(std::llround(n_as * config.ixp_participation)));
  std::vector<NodeId> participants;
  participants.reserve(pool_size);
  for (NodeId v = 0; v < std::min(tier3_end, pool_size); ++v) participants.push_back(v);
  if (participants.size() < pool_size) {
    std::vector<NodeId> stubs;
    stubs.reserve(n_as - tier3_end);
    for (NodeId v = tier3_end; v < n_as; ++v) {
      if (!isolated[v] && !remote[v]) stubs.push_back(v);
    }
    for (std::size_t i = 0; i < stubs.size(); ++i) {  // Fisher-Yates prefix
      const std::size_t j = i + rng.uniform(stubs.size() - i);
      std::swap(stubs[i], stubs[j]);
      participants.push_back(stubs[i]);
      if (participants.size() == pool_size) break;
    }
  }

  // Membership sizes: bounded Pareto matching the 2014 profile (median IXPs
  // a few dozen members, DE-CIX/LINX-class up to ~1,000), then adjusted so
  // the total hits the membership budget. Budget must cover one slot per
  // participant (the >= 1 IXP guarantee).
  const std::uint64_t membership_budget =
      std::max<std::uint64_t>(config.target_ixp_memberships, participants.size());
  const double size_cap = std::max(8.0, std::min(3200.0, participants.size() * 0.5));
  std::vector<std::uint64_t> ixp_capacity(n_ixp);
  std::uint64_t capacity_total = 0;
  for (auto& cap : ixp_capacity) {
    cap = std::max<std::uint64_t>(
        2, static_cast<std::uint64_t>(std::llround(rng.pareto(0.55, 12.0, size_cap))));
    capacity_total += cap;
  }
  // Proportional correction toward the budget (clamped so the shape holds).
  const double correction = static_cast<double>(membership_budget) /
                            static_cast<double>(capacity_total);
  capacity_total = 0;
  for (auto& cap : ixp_capacity) {
    cap = std::max<std::uint64_t>(
        2, static_cast<std::uint64_t>(std::llround(static_cast<double>(cap) *
                                                   correction)));
    cap = std::min<std::uint64_t>(cap, participants.size());
    capacity_total += cap;
  }

  // Track per-IXP chosen members (dedup via per-IXP membership marks).
  std::vector<std::vector<NodeId>> ixp_members(n_ixp);
  std::vector<std::uint32_t> member_stamp(n_as, 0);  // last IXP index + 1

  // Pass 1 — breadth: each participant joins one IXP drawn with probability
  // proportional to remaining capacity.
  {
    std::vector<NodeId> capacity_pool;  // IXP index repeated per free slot
    capacity_pool.reserve(capacity_total);
    for (NodeId i = 0; i < n_ixp; ++i) {
      for (std::uint64_t s = 0; s < ixp_capacity[i]; ++s) capacity_pool.push_back(i);
    }
    for (const NodeId participant : participants) {
      const NodeId ixp_index = capacity_pool[rng.uniform(capacity_pool.size())];
      if (member_stamp[participant] != ixp_index + 1) {
        member_stamp[participant] = ixp_index + 1;
        ixp_members[ixp_index].push_back(participant);
      }
    }
  }

  // Pass 2 — depth: fill remaining capacity degree-preferentially (weight =
  // hierarchy degree accumulated so far, so transit hubs join many IXPs).
  std::vector<std::uint32_t> hier_degree(n_as, 0);
  for (const Edge& e : acc.edges()) {
    ++hier_degree[e.u];
    ++hier_degree[e.v];
  }
  std::vector<NodeId> member_pool;
  for (const NodeId v : participants) {
    member_pool.push_back(v);
    for (std::uint32_t i = 0; i < hier_degree[v]; i += 2) member_pool.push_back(v);
  }
  std::vector<bool> in_ixp(n_as, false);
  for (NodeId ixp_index = 0; ixp_index < n_ixp; ++ixp_index) {
    auto& members = ixp_members[ixp_index];
    const std::uint64_t want = ixp_capacity[ixp_index];
    if (members.size() >= want) continue;
    for (const NodeId m : members) in_ixp[m] = true;
    std::uint64_t tries = 0;
    const std::uint64_t max_tries = want * 40 + 100;
    while (members.size() < want && tries < max_tries) {
      ++tries;
      const NodeId candidate = member_pool[rng.uniform(member_pool.size())];
      if (in_ixp[candidate]) continue;
      in_ixp[candidate] = true;
      members.push_back(candidate);
    }
    for (const NodeId m : members) in_ixp[m] = false;
  }

  for (NodeId ixp_index = 0; ixp_index < n_ixp; ++ixp_index) {
    const NodeId ixp = n_as + ixp_index;
    for (const NodeId member : ixp_members[ixp_index]) {
      acc.add_peer(member, ixp);  // membership modeled as settlement-free
    }
  }

  acc.finalize();

  InternetTopology topo;
  topo.graph = bsr::graph::csr_from_sorted_edges(n, acc.edges());
  topo.meta = std::move(meta);
  topo.num_ases = n_as;
  topo.num_ixps = n_ixp;
  topo.relations = EdgeRelations(topo.graph, acc.edges(), acc.rels());
  return topo;
}

}  // namespace bsr::topology
