#include "topology/serialization.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <limits>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "graph/graph_builder.hpp"
#include "topology/line_reader.hpp"

namespace bsr::topology {

using bsr::graph::Edge;
using bsr::graph::NodeId;
using detail::Fields;
using detail::LineReader;

namespace {

constexpr std::string_view kMagic = "brokerset-topology v1";

[[noreturn]] void fail(std::size_t line_no, const std::string& what,
                       std::string_view line_text = {}) {
  detail::fail_at("load_topology", line_no, what, line_text);
}

/// Range-checks a signed parse result into NodeId space. Parsing through
/// long long (instead of straight into an unsigned) is what rejects
/// negative inputs.
bool fits_node_id(long long value) {
  return value >= 0 &&
         value <= static_cast<long long>(std::numeric_limits<NodeId>::max());
}

/// Line numbers of the edge lines, kept as runs of consecutive lines: an
/// edge section without blank or comment lines is a single run.
class EdgeLines {
 public:
  void add(std::size_t edge, std::size_t line) {
    if (runs_.empty() || line - runs_.back().line != edge - runs_.back().edge) {
      runs_.push_back(Run{edge, line});
    }
  }

  [[nodiscard]] std::size_t line_of(std::size_t edge) const {
    const auto run = std::ranges::upper_bound(runs_, edge, {}, &Run::edge) - 1;
    return run->line + (edge - run->edge);
  }

 private:
  struct Run {
    std::size_t edge;
    std::size_t line;
  };
  std::vector<Run> runs_;
};

/// Everything the parse keeps; its scratch (line buffer, seen-node bits,
/// edge line numbers) is gone before the CSR fill starts.
struct Parsed {
  std::uint32_t num_ases = 0;
  std::uint32_t num_ixps = 0;
  std::vector<NodeMeta> meta;
  std::vector<Edge> edges;  // canonical and strictly ascending
  std::vector<EdgeRel> rels;
};

/// Sorts out-of-order edge lines (labels alongside) into canonical order and
/// returns the line of the earliest repeat of an edge, or 0. Equal edges
/// keep file order, so a repeat is any but the first of its group.
std::size_t sort_edges(std::vector<Edge>& edges, std::vector<EdgeRel>& rels,
                       const EdgeLines& lines) {
  std::vector<std::size_t> order(edges.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::ranges::sort(order, [&edges](std::size_t a, std::size_t b) {
    return edges[a] != edges[b] ? edges[a] < edges[b] : a < b;
  });
  std::size_t repeat_line = 0;
  std::vector<Edge> sorted_edges(edges.size());
  std::vector<EdgeRel> sorted_rels(rels.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    sorted_edges[i] = edges[order[i]];
    sorted_rels[i] = rels[order[i]];
    if (i > 0 && sorted_edges[i] == sorted_edges[i - 1]) {
      const std::size_t line = lines.line_of(order[i]);
      if (repeat_line == 0 || line < repeat_line) repeat_line = line;
    }
  }
  edges = std::move(sorted_edges);
  rels = std::move(sorted_rels);
  return repeat_line;
}

Parsed parse(std::istream& is) {
  LineReader in(is);
  const auto reject = [&in](const std::string& what) {
    fail(in.line_no(), what, in.line());
  };

  if (!in.next()) fail(in.line_no(), "empty input: missing magic header");
  if (in.line() != kMagic) {
    reject("bad magic header (expected \"" + std::string(kMagic) + "\")");
  }

  if (!in.next()) fail(in.line_no(), "truncated file: missing counts line");
  std::array<long long, 2> counts{};
  {
    Fields fields(in.line());
    if (!fields.record("counts", counts)) {
      reject("bad counts line (expected \"counts <ases> <ixps>\")");
    }
    if (!fields.at_end()) reject("trailing tokens after counts");
    const auto [num_ases, num_ixps] = counts;
    if (!fits_node_id(num_ases) || !fits_node_id(num_ixps) ||
        !fits_node_id(num_ases + num_ixps)) {
      reject("counts negative or overflow vertex id space");
    }
  }
  Parsed out;
  out.num_ases = static_cast<std::uint32_t>(counts[0]);
  out.num_ixps = static_cast<std::uint32_t>(counts[1]);
  const auto n = static_cast<NodeId>(counts[0] + counts[1]);

  out.meta.resize(n);
  std::vector<bool> seen_node(n, false);
  for (NodeId i = 0; i < n; ++i) {
    if (!in.next()) {
      fail(in.line_no(), "truncated file: got " + std::to_string(i) +
                             " node lines, counts promised " + std::to_string(n));
    }
    Fields fields(in.line());
    std::array<long long, 3> node{};
    if (!fields.record("node", node)) {
      reject("bad node line (expected \"node <id> <type> <tier>\"; " +
             std::to_string(n - i) + " node lines still owed)");
    }
    if (!fields.at_end()) reject("trailing tokens after node");
    const auto [id, type, tier] = node;
    if (!fits_node_id(id) || id >= n) reject("node id out of range");
    if (type < 0 || type > 3) reject("bad node type");
    if (tier < 0 || tier > 4) reject("bad tier");
    if (seen_node[static_cast<NodeId>(id)]) reject("duplicate node id");
    seen_node[static_cast<NodeId>(id)] = true;
    out.meta[static_cast<NodeId>(id)] =
        NodeMeta{static_cast<NodeType>(type), static_cast<Tier>(tier)};
  }

  // Canonical order is the fast path: in-order lines need no sort, and a
  // repeated edge sits right after its first copy.
  EdgeLines lines;
  bool ascending = true;
  std::size_t repeat_line = 0;
  while (in.next()) {
    Fields fields(in.line());
    std::array<long long, 3> edge{};
    if (!fields.record("edge", edge)) {
      reject("bad edge line (expected \"edge <u> <v> <rel>\")");
    }
    if (!fields.at_end()) reject("trailing tokens after edge");
    const auto [u, v, rel] = edge;
    if (!fits_node_id(u) || !fits_node_id(v) || u >= v || v >= n) {
      reject("edge ids invalid (need 0 <= u < v < n)");
    }
    if (rel < 0 || rel > 2) reject("bad relationship");
    const Edge e{static_cast<NodeId>(u), static_cast<NodeId>(v)};
    if (!out.edges.empty() && !(out.edges.back() < e)) {
      if (e != out.edges.back()) {
        ascending = false;
      } else if (repeat_line == 0) {
        repeat_line = in.line_no();
      }
    }
    lines.add(out.edges.size(), in.line_no());
    out.edges.push_back(e);
    out.rels.push_back(static_cast<EdgeRel>(rel));
  }
  if (is.bad()) fail(in.line_no(), "I/O error while reading edge section");
  if (!ascending) repeat_line = sort_edges(out.edges, out.rels, lines);
  if (repeat_line != 0) fail(repeat_line, "duplicate edges in input");
  return out;
}

}  // namespace

void save_topology(std::ostream& os, const InternetTopology& topo) {
  if (topo.meta.size() != topo.num_vertices() ||
      topo.relations.canonical_rels().size() != topo.graph.adjacency().size()) {
    throw std::invalid_argument("save_topology: meta or relations not aligned with graph");
  }
  os << kMagic << '\n';
  os << "counts " << topo.num_ases << ' ' << topo.num_ixps << '\n';
  for (NodeId v = 0; v < topo.num_vertices(); ++v) {
    os << "node " << v << ' ' << static_cast<int>(topo.meta[v].type) << ' '
       << static_cast<int>(topo.meta[v].tier) << '\n';
  }
  for (NodeId u = 0; u < topo.num_vertices(); ++u) {
    const auto nbrs = topo.graph.neighbors(u);
    const auto rels = topo.relations.canonical_rels_of(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (u >= nbrs[i]) continue;
      os << "edge " << u << ' ' << nbrs[i] << ' ' << static_cast<int>(rels[i]) << '\n';
    }
  }
}

void save_topology_file(const std::string& path, const InternetTopology& topo) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("save_topology_file: cannot open " + path);
  save_topology(out, topo);
  if (!out) throw std::runtime_error("save_topology_file: write failed for " + path);
}

InternetTopology load_topology(std::istream& is) {
  Parsed parsed = parse(is);
  InternetTopology topo;
  topo.graph = bsr::graph::csr_from_sorted_edges(
      static_cast<NodeId>(parsed.meta.size()), parsed.edges);
  topo.meta = std::move(parsed.meta);
  topo.num_ases = parsed.num_ases;
  topo.num_ixps = parsed.num_ixps;
  topo.relations = EdgeRelations(topo.graph, parsed.edges, parsed.rels);
  return topo;
}

InternetTopology load_topology_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_topology_file: cannot open " + path);
  return load_topology(in);
}

}  // namespace bsr::topology
