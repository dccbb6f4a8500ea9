// Reference implementations of the topology ingest path, for differential
// tests against the single-pass library code and the CAIDA importer.
//
// They are the straightforward versions the library used to ship: the
// line-at-a-time istringstream loader, the textbook CSR construction (sort,
// unique, then sort each adjacency list), slot labels placed by a binary
// search per edge, the lookup-based renumber that re-sorts every relabeled
// list and re-reads every label through rel_canonical, and the getline +
// istringstream CAIDA importer. None of them shares a pass with the code
// under test, so "identical output" is a real check of the in-place
// tokenizer, the sorted-edge CSR fill, the cursor walk in EdgeRelations,
// the transpose relabel and the CAIDA field parsing.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <istream>
#include <limits>
#include <map>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/graph_builder.hpp"
#include "graph/renumbering.hpp"
#include "topology/internet.hpp"
#include "topology/renumber.hpp"

namespace bsr::test::reference {

using bsr::graph::CsrGraph;
using bsr::graph::Edge;
using bsr::graph::NodeId;
using bsr::topology::EdgeRel;
using bsr::topology::EdgeRelations;
using bsr::topology::InternetTopology;

/// CSR of an arbitrary edge list: self-loops dropped, duplicates merged,
/// every adjacency list sorted on its own.
inline CsrGraph build_csr(NodeId n, std::vector<Edge> edges) {
  for (Edge& e : edges) {
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::erase_if(edges, [](const Edge& e) { return e.u == e.v; });
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::vector<std::vector<NodeId>> lists(n);
  for (const Edge& e : edges) {
    lists[e.u].push_back(e.v);
    lists[e.v].push_back(e.u);
  }
  std::vector<std::uint64_t> offsets{0};
  std::vector<NodeId> adjacency;
  for (auto& list : lists) {
    std::sort(list.begin(), list.end());
    adjacency.insert(adjacency.end(), list.begin(), list.end());
    offsets.push_back(adjacency.size());
  }
  return CsrGraph(std::move(offsets), std::move(adjacency));
}

/// Slot labels placed by a binary search for both slots of every edge.
inline EdgeRelations relations(const CsrGraph& g, std::span<const Edge> edges,
                               std::span<const EdgeRel> rels) {
  const auto slot = [&g](NodeId u, NodeId v) {
    const auto nbrs = g.neighbors(u);
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
    if (it == nbrs.end() || *it != v) throw std::logic_error("reference: not an edge");
    return g.offsets()[u] + static_cast<std::uint64_t>(it - nbrs.begin());
  };
  std::vector<EdgeRel> by_slot(g.adjacency().size(), EdgeRel::kPeer);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    by_slot[slot(edges[i].u, edges[i].v)] = rels[i];
    by_slot[slot(edges[i].v, edges[i].u)] = rels[i];
  }
  return EdgeRelations(g, std::move(by_slot));
}

namespace detail {

constexpr const char* kMagic = "brokerset-topology v1";

[[noreturn]] inline void fail(std::size_t line_no, const std::string& what,
                              const std::string& line_text = {}) {
  std::string msg =
      "load_topology: line " + std::to_string(line_no) + ": " + what;
  if (!line_text.empty()) {
    constexpr std::size_t kSnippet = 60;
    msg += " [\"" + line_text.substr(0, kSnippet) +
           (line_text.size() > kSnippet ? "...\"]" : "\"]");
  }
  throw std::runtime_error(msg);
}

inline bool at_end(std::istringstream& ls) {
  std::string extra;
  return !(ls >> extra);
}

inline bool fits_node_id(long long value) {
  return value >= 0 &&
         value <= static_cast<long long>(std::numeric_limits<NodeId>::max());
}

}  // namespace detail

/// The istringstream loader: one getline and one istringstream per line.
/// A duplicate edge is reported at the last line of the file.
inline InternetTopology load_topology(std::istream& is) {
  using detail::fail;
  using detail::fits_node_id;
  using bsr::topology::NodeMeta;
  using bsr::topology::NodeType;
  using bsr::topology::Tier;
  std::string line;
  std::size_t line_no = 0;

  const auto next_line = [&]() -> bool {
    while (std::getline(is, line)) {
      ++line_no;
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      if (line.find_first_not_of(" \t\r") != std::string::npos) return true;
    }
    return false;
  };

  if (!next_line()) fail(line_no, "empty input: missing magic header");
  if (line != detail::kMagic) {
    fail(line_no,
         std::string("bad magic header (expected \"") + detail::kMagic + "\")",
         line);
  }

  if (!next_line()) fail(line_no, "truncated file: missing counts line");
  long long num_ases = 0, num_ixps = 0;
  {
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag >> num_ases >> num_ixps) || tag != "counts") {
      fail(line_no, "bad counts line (expected \"counts <ases> <ixps>\")", line);
    }
    if (!detail::at_end(ls)) fail(line_no, "trailing tokens after counts", line);
    if (!fits_node_id(num_ases) || !fits_node_id(num_ixps) ||
        !fits_node_id(num_ases + num_ixps)) {
      fail(line_no, "counts negative or overflow vertex id space", line);
    }
  }
  const NodeId n = static_cast<NodeId>(num_ases + num_ixps);

  std::vector<NodeMeta> meta(n);
  std::vector<bool> seen_node(n, false);
  for (NodeId i = 0; i < n; ++i) {
    if (!next_line()) {
      fail(line_no, "truncated file: got " + std::to_string(i) +
                        " node lines, counts promised " + std::to_string(n));
    }
    std::istringstream ls(line);
    std::string tag;
    long long id = 0, type = 0, tier = 0;
    if (!(ls >> tag >> id >> type >> tier) || tag != "node") {
      fail(line_no, "bad node line (expected \"node <id> <type> <tier>\"; " +
                        std::to_string(n - i) + " node lines still owed)",
           line);
    }
    if (!detail::at_end(ls)) fail(line_no, "trailing tokens after node", line);
    if (!fits_node_id(id) || id >= n) fail(line_no, "node id out of range", line);
    if (type < 0 || type > 3) fail(line_no, "bad node type", line);
    if (tier < 0 || tier > 4) fail(line_no, "bad tier", line);
    if (seen_node[static_cast<NodeId>(id)]) {
      fail(line_no, "duplicate node id", line);
    }
    seen_node[static_cast<NodeId>(id)] = true;
    meta[static_cast<NodeId>(id)] =
        NodeMeta{static_cast<NodeType>(type), static_cast<Tier>(tier)};
  }

  std::vector<Edge> edges;
  std::vector<EdgeRel> rels;
  while (next_line()) {
    std::istringstream ls(line);
    std::string tag;
    long long u = 0, v = 0, rel = 0;
    if (!(ls >> tag >> u >> v >> rel) || tag != "edge") {
      fail(line_no, "bad edge line (expected \"edge <u> <v> <rel>\")", line);
    }
    if (!detail::at_end(ls)) fail(line_no, "trailing tokens after edge", line);
    if (!fits_node_id(u) || !fits_node_id(v) || u >= v || v >= n) {
      fail(line_no, "edge ids invalid (need 0 <= u < v < n)", line);
    }
    if (rel < 0 || rel > 2) fail(line_no, "bad relationship", line);
    edges.push_back(Edge{static_cast<NodeId>(u), static_cast<NodeId>(v)});
    rels.push_back(static_cast<EdgeRel>(rel));
  }
  if (is.bad()) fail(line_no, "I/O error while reading edge section");

  InternetTopology topo;
  topo.graph = build_csr(n, edges);
  if (topo.graph.num_edges() != edges.size()) {
    fail(line_no, "duplicate edges in input");
  }
  topo.meta = std::move(meta);
  topo.num_ases = static_cast<std::uint32_t>(num_ases);
  topo.num_ixps = static_cast<std::uint32_t>(num_ixps);
  std::vector<std::size_t> order(edges.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&edges](std::size_t a, std::size_t b) { return edges[a] < edges[b]; });
  std::vector<Edge> edges_sorted(edges.size());
  std::vector<EdgeRel> rels_sorted(rels.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    edges_sorted[i] = edges[order[i]];
    rels_sorted[i] = rels[order[i]];
  }
  topo.relations = relations(topo.graph, edges_sorted, rels_sorted);
  return topo;
}

/// The relabeled graph with each new list mapped and then sorted.
inline CsrGraph relabel(const CsrGraph& g, const bsr::graph::Renumbering& ren) {
  const NodeId n = g.num_vertices();
  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId x = 0; x < n; ++x) offsets[x + 1] = offsets[x] + g.degree(ren.to_old(x));
  std::vector<NodeId> adjacency(offsets[n]);
  for (NodeId x = 0; x < n; ++x) {
    std::uint64_t out = offsets[x];
    for (const NodeId v : g.neighbors(ren.to_old(x))) adjacency[out++] = ren.to_new(v);
    std::sort(adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[x]),
              adjacency.begin() + static_cast<std::ptrdiff_t>(out));
  }
  return CsrGraph(std::move(offsets), std::move(adjacency));
}

/// The lookup-based renumber: relabel() the graph, then look every label up
/// in the original topology and flip it where the relabel swaps the
/// canonical endpoint.
inline bsr::topology::RenumberedTopology renumber_topology(const InternetTopology& topo) {
  const NodeId n = topo.graph.num_vertices();
  auto ren = bsr::graph::Renumbering::degree_descending_segmented(topo.graph,
                                                                  topo.num_ases);
  InternetTopology out;
  out.graph = relabel(topo.graph, ren);
  out.num_ases = topo.num_ases;
  out.num_ixps = topo.num_ixps;
  out.meta.resize(n);
  for (NodeId x = 0; x < n; ++x) out.meta[x] = topo.meta[ren.to_old(x)];

  std::vector<Edge> edges;
  std::vector<EdgeRel> rels;
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : out.graph.neighbors(u)) {
      if (v <= u) continue;
      const NodeId a = ren.to_old(u);
      const NodeId b = ren.to_old(v);
      EdgeRel rel = topo.relations.rel_canonical(a, b);
      if (a > b) {
        if (rel == EdgeRel::kUProviderOfV) {
          rel = EdgeRel::kVProviderOfU;
        } else if (rel == EdgeRel::kVProviderOfU) {
          rel = EdgeRel::kUProviderOfV;
        }
      }
      edges.push_back(Edge{u, v});
      rels.push_back(rel);
    }
  }
  out.relations = relations(out.graph, edges, rels);
  return {std::move(out), std::move(ren)};
}


// --- CAIDA as-rel import ------------------------------------------------------

/// The getline + replace('|', ' ') + istringstream importer that
/// import_caida_as_rel replaced, kept whole (parse, assembly, tier peel) so
/// a differential test compares every topology it imports.
namespace caida {

using bsr::topology::NodeMeta;
using bsr::topology::NodeType;
using bsr::topology::Tier;

struct RawEdge {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  int rel = 0;  // -1 = a provides b, 0 = peer
};

inline std::vector<RawEdge> parse_as_rel(std::istream& is,
                                         std::map<std::uint64_t, NodeId>& id_map) {
  std::vector<RawEdge> edges;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::replace(line.begin(), line.end(), '|', ' ');
    std::istringstream ls(line);
    RawEdge e;
    if (!(ls >> e.a >> e.b >> e.rel)) {
      throw std::runtime_error("import_caida: line " + std::to_string(line_no) +
                               ": expected <as>|<as>|<rel>");
    }
    if (e.rel != -1 && e.rel != 0) {
      throw std::runtime_error("import_caida: line " + std::to_string(line_no) +
                               ": relationship must be -1 or 0");
    }
    if (e.a == e.b) continue;
    edges.push_back(e);
    id_map.emplace(e.a, 0);
    id_map.emplace(e.b, 0);
  }
  return edges;
}

inline std::vector<Tier> infer_tiers(NodeId n_as, const std::vector<RawEdge>& edges,
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
    if (customers[v].empty()) continue;
    if (depth[v] == 0) tiers[v] = Tier::kTier1;
    else if (depth[v] == 1) tiers[v] = Tier::kTier2;
    else tiers[v] = Tier::kTier3;
  }
  return tiers;
}

inline InternetTopology import_caida_as_rel(std::istream& as_rel,
                                            std::istream& ixp_members) {
  std::map<std::uint64_t, NodeId> id_map;
  const auto edges = parse_as_rel(as_rel, id_map);
  if (edges.empty()) throw std::runtime_error("import_caida: no edges");
  NodeId next = 0;
  for (auto& [raw, dense] : id_map) dense = next++;
  const NodeId n_as = next;

  std::vector<std::vector<NodeId>> ixps;
  {
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(ixp_members, line)) {
      ++line_no;
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ls(line);
      std::string name;
      if (!(ls >> name)) continue;
      std::vector<NodeId> members;
      std::uint64_t as_number = 0;
      while (ls >> as_number) {
        const auto it = id_map.find(as_number);
        if (it != id_map.end()) members.push_back(it->second);
      }
      if (members.size() >= 2) ixps.push_back(std::move(members));
    }
  }
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
    rels.push_back(flip ? bsr::topology::reversed(rel_u_provider) : rel_u_provider);
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

}  // namespace caida

}  // namespace bsr::test::reference

namespace bsr::test {

/// Field-by-field equality of two topologies: CSR arrays, counts, every
/// vertex's metadata and every adjacency slot's label.
inline void expect_same_topology(const bsr::topology::InternetTopology& got,
                                 const bsr::topology::InternetTopology& want) {
  const auto vec = [](auto span) { return std::vector(span.begin(), span.end()); };
  EXPECT_EQ(vec(got.graph.offsets()), vec(want.graph.offsets()));
  EXPECT_EQ(vec(got.graph.adjacency()), vec(want.graph.adjacency()));
  EXPECT_EQ(got.num_ases, want.num_ases);
  EXPECT_EQ(got.num_ixps, want.num_ixps);
  ASSERT_EQ(got.meta.size(), want.meta.size());
  for (std::size_t v = 0; v < got.meta.size(); ++v) {
    EXPECT_EQ(got.meta[v].type, want.meta[v].type) << "vertex " << v;
    EXPECT_EQ(got.meta[v].tier, want.meta[v].tier) << "vertex " << v;
  }
  const auto got_rels = got.relations.canonical_rels();
  const auto want_rels = want.relations.canonical_rels();
  ASSERT_EQ(got_rels.size(), want_rels.size());
  EXPECT_TRUE(std::ranges::equal(got_rels, want_rels)) << "slot labels differ";
  EXPECT_TRUE(got.relations == want.relations);
}

}  // namespace bsr::test
