#include "topology/serialization.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "graph/graph_builder.hpp"

namespace bsr::topology {

using bsr::graph::Edge;
using bsr::graph::NodeId;

namespace {

constexpr std::string_view kMagic = "brokerset-topology v1";

/// Error with line number and a (truncated) snippet of the offending line,
/// so a corrupt multi-megabyte file points straight at the bad record.
[[noreturn]] void fail(std::size_t line_no, const std::string& what,
                       std::string_view line_text = {}) {
  std::string msg =
      "load_topology: line " + std::to_string(line_no) + ": " + what;
  if (!line_text.empty()) {
    constexpr std::size_t kSnippet = 60;
    msg += " [\"";
    msg += line_text.substr(0, kSnippet);
    msg += line_text.size() > kSnippet ? "...\"]" : "\"]";
  }
  throw std::runtime_error(msg);
}

/// Range-checks a signed parse result into NodeId space. Parsing through
/// long long (instead of straight into an unsigned) is what rejects
/// negative inputs.
bool fits_node_id(long long value) {
  return value >= 0 &&
         value <= static_cast<long long>(std::numeric_limits<NodeId>::max());
}

/// The stream's lines, read in fixed-size blocks so the loader's transient
/// memory does not grow with the file. A line runs up to '\n' (a last line
/// without one still counts) and loses any '#' comment; next() skips lines
/// left holding only ' ', '\t' and '\r'.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is), buf_(kBlock) {}

  /// Advances to the next non-blank line; false at the end of the input.
  bool next() {
    for (;;) {
      const char* begin = buf_.data() + pos_;
      const std::size_t avail = end_ - pos_;
      const auto* newline = static_cast<const char*>(std::memchr(begin, '\n', avail));
      std::size_t length = avail;
      if (newline != nullptr) {
        length = static_cast<std::size_t>(newline - begin);
        pos_ += length + 1;
      } else if (!eof_) {
        refill();
        continue;
      } else if (avail == 0) {
        return false;
      } else {
        pos_ = end_;
      }
      ++line_no_;
      std::string_view line(begin, length);
      line = line.substr(0, line.find('#'));
      if (line.find_first_not_of(" \t\r") != std::string_view::npos) {
        line_ = line;
        return true;
      }
    }
  }

  /// The current line; valid until the next call to next().
  [[nodiscard]] std::string_view line() const noexcept { return line_; }
  [[nodiscard]] std::size_t line_no() const noexcept { return line_no_; }

 private:
  static constexpr std::size_t kBlock = std::size_t{1} << 16;

  /// Keeps the unfinished line at the front of the buffer and reads behind
  /// it; the buffer only grows for a line longer than itself.
  void refill() {
    std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
    if (end_ == buf_.size()) buf_.resize(2 * buf_.size());
    const std::size_t want = buf_.size() - end_;
    is_.read(buf_.data() + end_, static_cast<std::streamsize>(want));
    const auto got = static_cast<std::size_t>(is_.gcount());
    end_ += got;
    eof_ = got < want;
  }

  std::istream& is_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;  // first unread byte
  std::size_t end_ = 0;  // one past the last byte read
  bool eof_ = false;
  std::string_view line_;
  std::size_t line_no_ = 0;
};

/// One line tokenized in place under the grammar of `istream >>`: tokens
/// are separated by ' ', '\t', '\n', '\v', '\f' or '\r'; an integer is an
/// optional sign and decimal digits, ends at the first other character
/// (which starts the next token), and is malformed if it overflows.
class Fields {
 public:
  explicit Fields(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  /// Reads "<tag> <int>..." into `values`; false if the tag differs or an
  /// integer is missing or malformed.
  template <std::size_t N>
  bool record(std::string_view tag, std::array<long long, N>& values) {
    if (word() != tag) return false;
    for (long long& value : values) {
      if (!integer(value)) return false;
    }
    return true;
  }

  /// True iff nothing but whitespace remains.
  bool at_end() {
    skip_space();
    return p_ == end_;
  }

 private:
  static bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

  void skip_space() {
    while (p_ != end_ && is_space(*p_)) ++p_;
  }

  std::string_view word() {
    skip_space();
    const char* begin = p_;
    while (p_ != end_ && !is_space(*p_)) ++p_;
    return {begin, static_cast<std::size_t>(p_ - begin)};
  }

  bool integer(long long& out) {
    skip_space();
    // from_chars takes a '-' sign but not '+'; after a '+' a digit must follow.
    if (p_ != end_ && *p_ == '+') {
      ++p_;
      if (p_ == end_ || *p_ < '0' || *p_ > '9') return false;
    }
    const auto [next, error] = std::from_chars(p_, end_, out);
    p_ = next;
    return error == std::errc{};
  }

  const char* p_;
  const char* end_;
};

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
