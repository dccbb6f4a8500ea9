// Shared fixtures and naive reference implementations for the test suite.
//
// Reference implementations here are deliberately simple (quadratic, brute
// force) and independent of the optimized library code they validate.
#pragma once

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/graph_builder.hpp"
#include "graph/rng.hpp"

namespace bsr::test {

using bsr::graph::CsrGraph;
using bsr::graph::GraphBuilder;
using bsr::graph::NodeId;

/// 0-1-2-...-(n-1) path.
inline CsrGraph make_path(NodeId n) {
  GraphBuilder b(n);
  for (NodeId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

/// Cycle over n vertices.
inline CsrGraph make_cycle(NodeId n) {
  GraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);
  return b.build();
}

/// Star with center 0 and n-1 leaves.
inline CsrGraph make_star(NodeId n) {
  GraphBuilder b(n);
  for (NodeId v = 1; v < n; ++v) b.add_edge(0, v);
  return b.build();
}

/// Complete graph K_n.
inline CsrGraph make_complete(NodeId n) {
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) b.add_edge(u, v);
  }
  return b.build();
}

/// G(n, p) random graph, deterministic in seed. Not necessarily connected.
inline CsrGraph make_random(NodeId n, double p, std::uint64_t seed) {
  bsr::graph::Rng rng(seed);
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.bernoulli(p)) b.add_edge(u, v);
    }
  }
  return b.build();
}

/// Connected random graph: G(n, p) plus a random spanning path.
inline CsrGraph make_connected_random(NodeId n, double p, std::uint64_t seed) {
  bsr::graph::Rng rng(seed);
  GraphBuilder b(n);
  std::vector<NodeId> order(n);
  for (NodeId v = 0; v < n; ++v) order[v] = v;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = rng.uniform(i);
    std::swap(order[i - 1], order[j]);
  }
  for (NodeId v = 0; v + 1 < n; ++v) b.add_edge(order[v], order[v + 1]);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.bernoulli(p)) b.add_edge(u, v);
    }
  }
  return b.build();
}

// --- minimal JSON reader -----------------------------------------------------
// Just enough JSON to round-trip what the exporters emit (objects, arrays,
// strings, numbers, booleans, null). Strict where it matters for tests —
// trailing garbage and malformed tokens throw — and independent of the
// writer code it validates.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // insertion order

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }
  void expect_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) fail("bad literal");
    pos_ += lit.size();
  }

  JsonValue parse_value() {
    skip_ws();
    JsonValue v;
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"':
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        return v;
      case 't':
        expect_literal("true");
        v.kind = JsonValue::Kind::kBool;
        v.boolean = true;
        return v;
      case 'f':
        expect_literal("false");
        v.kind = JsonValue::Kind::kBool;
        return v;
      case 'n':
        expect_literal("null");
        return v;
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          const unsigned code =
              static_cast<unsigned>(std::stoul(std::string(text_.substr(pos_, 4)),
                                               nullptr, 16));
          pos_ += 4;
          out.push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t begin = pos_;
    while (pos_ < text_.size() &&
           (std::string_view("+-.eE0123456789").find(text_[pos_]) !=
            std::string_view::npos)) {
      ++pos_;
    }
    if (pos_ == begin) fail("expected a value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    try {
      v.number = std::stod(std::string(text_.substr(begin, pos_ - begin)));
    } catch (const std::exception&) {
      fail("bad number");
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

inline JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

/// Naive O(V^2) BFS distances used as the reference.
inline std::vector<std::uint32_t> naive_bfs(const CsrGraph& g, NodeId source) {
  constexpr auto kInf = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> dist(g.num_vertices(), kInf);
  dist[source] = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId u = 0; u < g.num_vertices(); ++u) {
      if (dist[u] == kInf) continue;
      for (const NodeId v : g.neighbors(u)) {
        if (dist[v] > dist[u] + 1) {
          dist[v] = dist[u] + 1;
          changed = true;
        }
      }
    }
  }
  return dist;
}

/// The dominated subgraph G_B as a graph of its own: only the edges with an
/// endpoint in `mask`. Pairs with naive_bfs as a reference for filtered
/// traversals that shares no code with the engine's filters.
inline CsrGraph materialize_dominated(const CsrGraph& g,
                                      const std::vector<bool>& mask) {
  GraphBuilder b(g.num_vertices());
  for (const bsr::graph::Edge& e : g.edges()) {
    if (mask[e.u] || mask[e.v]) b.add_edge(e.u, e.v);
  }
  return b.build();
}

}  // namespace bsr::test
