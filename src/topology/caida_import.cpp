#include "topology/caida_import.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "graph/graph_builder.hpp"
#include "topology/line_reader.hpp"

namespace bsr::topology {

using bsr::graph::Edge;
using bsr::graph::NodeId;

namespace {

struct RawEdge {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  int rel = 0;  // -1 = a provides b, 0 = peer
};

[[noreturn]] void reject(const detail::LineReader& in, const std::string& what) {
  detail::fail_at("import_caida", in.line_no(), what, in.line());
}

std::vector<RawEdge> parse_as_rel(std::istream& is,
                                  std::map<std::uint64_t, NodeId>& id_map) {
  std::vector<RawEdge> edges;
  detail::LineReader in(is);
  while (in.next()) {
    detail::Fields fields(in.line(), '|');
    RawEdge e;
    if (!fields.integer(e.a) || !fields.integer(e.b) || !fields.integer(e.rel)) {
      reject(in, "expected <as>|<as>|<rel> (AS numbers 0..2^64-1)");
    }
    if (e.rel != -1 && e.rel != 0) reject(in, "relationship must be -1 or 0");
    if (e.a == e.b) continue;
    edges.push_back(e);
    id_map.emplace(e.a, 0);
    id_map.emplace(e.b, 0);
  }
  return edges;
}

/// IXP membership lines: "<ixp-name> <as> <as> ...". Members the as-rel
/// stream does not name are skipped; IXPs left with < 2 members are dropped.
std::vector<std::vector<NodeId>> parse_ixp_members(
    std::istream& is, const std::map<std::uint64_t, NodeId>& id_map) {
  std::vector<std::vector<NodeId>> ixps;
  detail::LineReader in(is);
  while (in.next()) {
    detail::Fields fields(in.line());
    static_cast<void>(fields.word());  // the name
    std::vector<NodeId> members;
    while (!fields.at_end()) {
      std::uint64_t as_number = 0;
      if (!fields.integer(as_number)) {
        reject(in, "expected <ixp-name> <as>... (AS numbers 0..2^64-1)");
      }
      // Unknown AS numbers (not in the as-rel file) are skipped: the
      // membership data routinely covers more ASes than the BGP view.
      const auto it = id_map.find(as_number);
      if (it != id_map.end()) members.push_back(it->second);
    }
    if (members.size() >= 2) ixps.push_back(std::move(members));
  }
  return ixps;
}

/// Provider-depth peel for tier labels: ASes with no providers are tier 1,
/// their direct customers tier 2, then tier 3; everything deeper is a stub.
std::vector<Tier> infer_tiers(NodeId n_as, const std::vector<RawEdge>& edges,
                              const std::map<std::uint64_t, NodeId>& id_map) {
  std::vector<std::vector<NodeId>> customers(n_as);
  std::vector<std::uint32_t> provider_count(n_as, 0);
  for (const RawEdge& e : edges) {
    if (e.rel != -1) continue;
    const NodeId provider = id_map.at(e.a);
    const NodeId customer = id_map.at(e.b);
    customers[provider].push_back(customer);
    ++provider_count[customer];
  }
  std::vector<std::uint32_t> depth(n_as, bsr::graph::kUnreachable);
  std::vector<NodeId> queue;
  for (NodeId v = 0; v < n_as; ++v) {
    if (provider_count[v] == 0) {
      depth[v] = 0;
      queue.push_back(v);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (const NodeId c : customers[u]) {
      if (depth[c] == bsr::graph::kUnreachable) {
        depth[c] = depth[u] + 1;
        queue.push_back(c);
      }
    }
  }
  std::vector<Tier> tiers(n_as, Tier::kStub);
  for (NodeId v = 0; v < n_as; ++v) {
    // Only transit ASes (with customers) get tier-1..3 labels.
    if (customers[v].empty()) continue;
    if (depth[v] == 0) tiers[v] = Tier::kTier1;
    else if (depth[v] == 1) tiers[v] = Tier::kTier2;
    else tiers[v] = Tier::kTier3;
  }
  return tiers;
}

}  // namespace

InternetTopology import_caida_as_rel(std::istream& as_rel) {
  std::istringstream empty;
  return import_caida_as_rel(as_rel, empty);
}

InternetTopology import_caida_as_rel(std::istream& as_rel, std::istream& ixp_members) {
  std::map<std::uint64_t, NodeId> id_map;
  const auto edges = parse_as_rel(as_rel, id_map);
  if (edges.empty()) throw std::runtime_error("import_caida: no edges");
  NodeId next = 0;
  for (auto& [raw, dense] : id_map) dense = next++;
  const NodeId n_as = next;

  const auto ixps = parse_ixp_members(ixp_members, id_map);
  const auto n_ixp = static_cast<NodeId>(ixps.size());

  bsr::graph::GraphBuilder builder(n_as + n_ixp);
  std::vector<Edge> canonical;
  std::vector<EdgeRel> rels;
  const auto add = [&](NodeId u, NodeId v, EdgeRel rel_u_provider) {
    if (u == v) return;
    const bool flip = u > v;
    const Edge e = flip ? Edge{v, u} : Edge{u, v};
    builder.add_edge(e.u, e.v);
    canonical.push_back(e);
    rels.push_back(flip ? reversed(rel_u_provider) : rel_u_provider);
  };
  for (const RawEdge& e : edges) {
    add(id_map.at(e.a), id_map.at(e.b),
        e.rel == -1 ? EdgeRel::kUProviderOfV : EdgeRel::kPeer);
  }
  for (NodeId i = 0; i < n_ixp; ++i) {
    for (const NodeId m : ixps[i]) add(n_as + i, m, EdgeRel::kPeer);
  }

  InternetTopology topo;
  topo.graph = builder.build();
  topo.num_ases = n_as;
  topo.num_ixps = n_ixp;

  // Deduplicate the (edge, rel) pairs against the built graph: keep the
  // first occurrence of each canonical edge.
  {
    std::vector<std::size_t> order(canonical.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      return canonical[x] < canonical[y];
    });
    std::vector<Edge> unique_edges;
    std::vector<EdgeRel> unique_rels;
    unique_edges.reserve(topo.graph.num_edges());
    for (const std::size_t idx : order) {
      if (!unique_edges.empty() && unique_edges.back() == canonical[idx]) continue;
      unique_edges.push_back(canonical[idx]);
      unique_rels.push_back(rels[idx]);
    }
    topo.relations = EdgeRelations(topo.graph, unique_edges, unique_rels);
  }

  const auto tiers = infer_tiers(n_as, edges, id_map);
  topo.meta.resize(topo.num_vertices());
  for (NodeId v = 0; v < n_as; ++v) {
    const bool transit = tiers[v] != Tier::kStub;
    topo.meta[v] = NodeMeta{
        transit ? NodeType::kTransitAccess : NodeType::kEnterprise, tiers[v]};
  }
  for (NodeId v = n_as; v < topo.num_vertices(); ++v) {
    topo.meta[v] = NodeMeta{NodeType::kIxp, Tier::kTierNone};
  }
  return topo;
}

InternetTopology import_caida_files(const std::string& as_rel_path,
                                    const std::string& ixp_path) {
  std::ifstream as_rel(as_rel_path);
  if (!as_rel) {
    throw std::runtime_error("import_caida_files: cannot open " + as_rel_path);
  }
  if (ixp_path.empty()) {
    return import_caida_as_rel(as_rel);
  }
  std::ifstream ixp(ixp_path);
  if (!ixp) throw std::runtime_error("import_caida_files: cannot open " + ixp_path);
  return import_caida_as_rel(as_rel, ixp);
}

}  // namespace bsr::topology
