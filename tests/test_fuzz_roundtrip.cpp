// Fuzz-style round-trip tests over randomized instances.
//
// Serialization and EdgeRelations must survive arbitrary
// generator outputs, not just the default configuration. Each TEST_P draws
// a differently-shaped topology (size, tail, IXP ecosystem all varying with
// the seed) and pushes it through every persistence path. The loader fuzz
// tests then attack the *parser*: truncations, mutated bytes and garbage
// lines must produce std::runtime_error with line context — never a crash
// or a silently-wrong topology — and must get the same answer as the
// reference istringstream loader (reference_ingest.hpp), byte for byte. A
// final group round-trips FaultPlane flap schedules (apply/undo back to
// pristine).
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "broker/broker_set.hpp"
#include "broker/dominated.hpp"
#include "graph/fault_plane.hpp"
#include "reference_ingest.hpp"
#include "topology/serialization.hpp"

namespace bsr {
namespace {

using bsr::graph::NodeId;

topology::InternetConfig fuzz_config(std::uint64_t seed) {
  bsr::graph::Rng rng(seed);
  auto cfg = topology::InternetConfig{}.scaled(0.004 + 0.02 * rng.uniform01());
  cfg.seed = seed;
  cfg.remote_fraction = 0.15 * rng.uniform01();
  cfg.isolated_fraction = 0.02 * rng.uniform01();
  cfg.ixp_participation = 0.2 + 0.5 * rng.uniform01();
  cfg.stub_content_fraction = 0.3 * rng.uniform01();
  cfg.stub_transit_fraction = 0.2 * rng.uniform01();
  return cfg;
}

class FuzzRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzRoundTripTest, TopologySerializationRoundTrips) {
  const auto topo = topology::make_internet(fuzz_config(GetParam()));
  std::ostringstream oss;
  topology::save_topology(oss, topo);
  std::istringstream iss(oss.str());
  const auto loaded = topology::load_topology(iss);
  EXPECT_EQ(loaded.graph.edges(), topo.graph.edges());
  EXPECT_EQ(loaded.num_ases, topo.num_ases);
  // Relationship labels survive for a sample of edges.
  const auto edges = topo.graph.edges();
  for (std::size_t i = 0; i < edges.size(); i += 97) {
    EXPECT_EQ(loaded.relations.rel_canonical(edges[i].u, edges[i].v),
              topo.relations.rel_canonical(edges[i].u, edges[i].v));
  }
}

TEST_P(FuzzRoundTripTest, GeneratorInvariantsHold) {
  const auto cfg = fuzz_config(GetParam() + 900);
  const auto topo = topology::make_internet(cfg);
  EXPECT_EQ(topo.num_vertices(), cfg.num_ases + cfg.num_ixps);
  // IXPs only peer, and only with ASes.
  for (NodeId ixp = topo.num_ases; ixp < topo.num_vertices(); ++ixp) {
    for (const NodeId m : topo.graph.neighbors(ixp)) {
      ASSERT_LT(m, topo.num_ases);
      ASSERT_TRUE(topo.relations.is_peer(ixp, m));
    }
  }
  // Relationship labels are total: every edge answers queries both ways.
  const auto edges = topo.graph.edges();
  for (std::size_t i = 0; i < edges.size(); i += 131) {
    const auto rel = topo.relations.rel_canonical(edges[i].u, edges[i].v);
    if (rel != topology::EdgeRel::kPeer) {
      EXPECT_NE(topo.relations.is_provider_of(edges[i].u, edges[i].v),
                topo.relations.is_provider_of(edges[i].v, edges[i].u));
    }
  }
}

// --- loader fuzz -------------------------------------------------------------

std::string serialized_fixture(std::uint64_t seed) {
  const auto topo = topology::make_internet(fuzz_config(seed));
  std::ostringstream oss;
  topology::save_topology(oss, topo);
  return oss.str();
}

/// The loader's contract under attack: either it accepts the input (benign
/// mutation) or it throws std::runtime_error carrying line context. Nothing
/// else — no other exception type, no crash, no silent partial load. The
/// reference loader must agree: both accept with identical topologies, or
/// both reject with the same message. The one allowed difference is a
/// duplicate edge, which the library reports at its second occurrence and
/// the reference at the last line.
void expect_matches_reference(const std::string& text) {
  std::optional<topology::InternetTopology> got;
  std::optional<topology::InternetTopology> want;
  std::string got_error;
  std::string want_error;
  try {
    std::istringstream iss(text);
    got = topology::load_topology(iss);
  } catch (const std::runtime_error& error) {
    got_error = error.what();
  }
  try {
    std::istringstream iss(text);
    want = test::reference::load_topology(iss);
  } catch (const std::runtime_error& error) {
    want_error = error.what();
  }
  ASSERT_EQ(got.has_value(), want.has_value())
      << "library: " << (got ? std::string("accepted") : got_error)
      << "\nreference: " << (want ? std::string("accepted") : want_error);
  if (got) {
    EXPECT_EQ(got->num_vertices(), got->meta.size());
    test::expect_same_topology(*got, *want);
    return;
  }
  EXPECT_NE(got_error.find("load_topology: line "), std::string::npos)
      << "loader error lacks line context: " << got_error;
  if (got_error.find("duplicate edges") != std::string::npos) {
    EXPECT_NE(want_error.find("duplicate edges"), std::string::npos) << want_error;
  } else {
    EXPECT_EQ(got_error, want_error);
  }
}

TEST_P(FuzzRoundTripTest, LoaderSurvivesTruncation) {
  const std::string text = serialized_fixture(GetParam() + 1100);
  bsr::graph::Rng rng(GetParam() + 1);
  for (int trial = 0; trial < 40; ++trial) {
    // Byte-level truncation: mid-line cuts must be rejected with context;
    // a cut at an edge-line boundary is a legal (smaller) topology.
    const auto cut = rng.uniform(text.size());
    expect_matches_reference(text.substr(0, cut));
  }
  // Cutting inside the node section always under-delivers on the counts
  // promise: the error must say so.
  const auto nodes_start = text.find("\nnode ");
  ASSERT_NE(nodes_start, std::string::npos);
  std::istringstream iss(text.substr(0, nodes_start + 1));
  try {
    (void)topology::load_topology(iss);
    FAIL() << "loader accepted a file with zero of the promised node lines";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("counts promised"), std::string::npos)
        << error.what();
  }
}

TEST_P(FuzzRoundTripTest, LoaderSurvivesByteMutations) {
  const std::string text = serialized_fixture(GetParam() + 1200);
  bsr::graph::Rng rng(GetParam() + 2);
  const std::string alphabet = "0123456789abcdefXYZ -#\t";
  for (int trial = 0; trial < 60; ++trial) {
    std::string mutated = text;
    const auto pos = rng.uniform(mutated.size());
    mutated[pos] = alphabet[rng.uniform(alphabet.size())];
    expect_matches_reference(mutated);
  }
}

TEST_P(FuzzRoundTripTest, LoaderRejectsGarbageLines) {
  const std::string text = serialized_fixture(GetParam() + 1250);
  bsr::graph::Rng rng(GetParam() + 3);
  for (int trial = 0; trial < 20; ++trial) {
    // Inject a non-comment garbage line at a random line boundary: every
    // section demands a recognized tag, so this must always be rejected.
    std::string mutated = text;
    const auto pos = rng.uniform(mutated.size());
    const auto insert_at = mutated.find('\n', pos);
    if (insert_at == std::string::npos) continue;
    mutated.insert(insert_at + 1, "lorem ipsum 42\n");
    std::istringstream iss(mutated);
    EXPECT_THROW((void)topology::load_topology(iss), std::runtime_error);
    expect_matches_reference(mutated);
  }
}

TEST(LoaderDifferentialTest, EdgeCasesMatchReference) {
  const std::string magic = "brokerset-topology v1\n";
  const std::string head = magic + "counts 3 1\nnode 0 0 1\nnode 1 0 2\n"
                                   "node 2 1 4\nnode 3 3 0\n";
  const std::string edges = "edge 0 1 1\nedge 0 3 0\nedge 1 2 2\nedge 2 3 0\n";
  const std::string rest = edges.substr(std::string("edge 0 1 1\n").size());
  const auto crlf = [](std::string text) {
    for (std::size_t at = text.find('\n'); at != std::string::npos;
         at = text.find('\n', at + 2)) {
      text.insert(at, "\r");
    }
    return text;
  };
  const std::vector<std::string> cases = {
      head + edges,
      // Line endings, separators and blank lines.
      crlf(head + edges),                        // rejected: magic has a '\r'
      magic + crlf(head.substr(magic.size()) + edges),
      head + "edge\t0\t1\t1\nedge 0 3 0\t\nedge 1 2 2\nedge 2 3 0\n",
      head + "edge\v0\f1 1\nedge 0 3 0\nedge 1 2 2\nedge 2 3 0\n",
      head + "\v\n" + edges,                     // not blank: '\v' is a separator only
      head + "\n \t\r\n# note\n" + edges + "\n\n",
      head + edges.substr(0, edges.size() - 1),  // no final newline
      head + edges + "   \t ",                   // last line only whitespace
      head + "edge 0 1 1   \t\r\n" + rest,
      // Signs and digits.
      head + "edge +0 +1 +1\n" + rest,
      head + "edge 0 1 -0\n" + rest,
      head + "edge 0 1 +-1\n" + rest,
      head + "edge 0 1 + 1\n" + rest,
      head + "edge 0 1 +\n" + rest,
      head + "edge 0 1 -\n" + rest,
      magic + "counts +3 +01\nnode 000 0 01\nnode 1 0 2\nnode 2 1 4\nnode 3 3 0\n" +
          edges,
      head + "edge 0000000000000000000 1 1\n" + rest,     // 19 digits
      head + "edge 00000000000000000000 1 1\n" + rest,    // 20 digits
      head + "edge 0 1000000000000000000 1\n" + rest,     // 19 digits
      head + "edge 0 9223372036854775807 1\n" + rest,
      head + "edge 0 9223372036854775808 1\n" + rest,     // overflow
      head + "edge -9223372036854775808 1 1\n" + rest,
      head + "edge 0 99999999999999999999 1\n" + rest,    // 20 digits
      head + "edge 0 123456789012345678901 1\n" + rest,   // 21 digits
      head + "edge 0 1 1x\n" + rest,
      head + "edge 0 1x 1\n" + rest,
      head + "edge 0 1-1 1\n" + rest,
      head + "edge 0 1 1.0\n" + rest,
      head + "edge 0 1 1" + std::string(1, '\0') + "\n" + rest,
      head + "edge 0 1\xa0 1\n" + rest,
      head + "edges 0 1 1\n" + rest,
      // Comments.
      head + "edge 0 1 1 # provider\n" + rest,
      head + "edge 0 1# 1\n" + rest,
      magic + "# leading comment\ncounts 3 1 # trailing\n" +
          head.substr(magic.size() + 11) + edges,
      // Edge order.
      head + "edge 2 3 0\nedge 0 1 1\nedge 1 2 2\nedge 0 3 0\n",
      head + "edge 2 3 0\nedge 0 1 1\nedge 2 3 0\nedge 0 3 0\n",
      head + edges + "edge 0 1 1\n",
      head + "edge 0 3 0\nedge 0 3 0\n",
      // Sections.
      "",
      "# only a comment\n\n",
      magic,
      magic + "counts 0 0\n",
      magic + "counts 3 1\nnode 0 0 1\n",
      magic + "counts 2 0\nnode 1 0 0\nnode 0 0 0\nedge 0 1 2\n",
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    expect_matches_reference(cases[i]);
  }
}

TEST(LoaderHardeningTest, RejectsSpecificCorruptions) {
  const auto reject = [](const std::string& text, const std::string& needle) {
    std::istringstream iss(text);
    try {
      (void)topology::load_topology(iss);
      FAIL() << "accepted: " << text.substr(0, 60);
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
          << "wanted \"" << needle << "\" in: " << error.what();
    }
  };
  const std::string magic = "brokerset-topology v1\n";
  reject("", "magic");
  reject("not-the-magic\n", "magic");
  reject(magic, "counts");
  reject(magic + "counts 1 nope\n", "counts");
  reject(magic + "counts 1 0 extra\n", "trailing");
  reject(magic + "counts -1 2\n", "negative or overflow");
  reject(magic + "counts 4294967295 4294967295\n", "negative or overflow");
  reject(magic + "counts 2 0\nnode 0 0 0\n", "counts promised");
  reject(magic + "counts 2 0\nnode 0 0 0\nnode -1 0 0\n", "out of range");
  reject(magic + "counts 2 0\nnode 0 0 0\nnode 0 0 0\n", "duplicate node");
  reject(magic + "counts 2 0\nnode 0 0 0\nnode 1 9 0\n", "node type");
  reject(magic + "counts 2 0\nnode 0 0 0\nnode 1 0 0 junk\n", "trailing");
  const std::string two_nodes = magic + "counts 2 0\nnode 0 0 0\nnode 1 0 0\n";
  reject(two_nodes + "edge 1 0 0\n", "edge ids invalid");
  reject(two_nodes + "edge 0 5 0\n", "edge ids invalid");
  reject(two_nodes + "edge 0 1 7\n", "bad relationship");
  reject(two_nodes + "edge 0 1 0 junk\n", "trailing");
  reject(two_nodes + "edge 0 1 0\nedge 0 1 0\n", "line 6: duplicate edges");

  // A duplicate is reported at its second occurrence, whether the edge
  // lines are in canonical order or not; syntax errors come first.
  const std::string four_nodes =
      magic + "counts 4 0\nnode 0 0 0\nnode 1 0 0\nnode 2 0 0\nnode 3 0 0\n";
  reject(four_nodes + "edge 0 1 0\nedge 0 2 0\nedge 0 2 0\nedge 1 3 0\nedge 2 3 0\n",
         "line 9: duplicate edges");
  reject(four_nodes + "edge 2 3 0\nedge 0 2 0\nedge 1 3 0\nedge 0 2 0\nedge 0 1 0\n",
         "line 10: duplicate edges");
  reject(four_nodes + "edge 2 3 0\n# c\n\nedge 0 2 0\nedge 1 3 0\n\nedge 0 2 1\n"
                      "edge 0 1 0\nedge 2 3 0\n",
         "line 13: duplicate edges");
  reject(four_nodes + "edge 0 1 0\nedge 0 1 0\nedge 1 0 0\n", "line 9: edge ids invalid");

  // The happy path with comments and CR line endings still loads.
  std::istringstream ok(magic + "# comment\r\ncounts 2 0\r\nnode 0 0 0\r\n"
                                "node 1 0 0\r\nedge 0 1 0\r\n");
  const auto topo = topology::load_topology(ok);
  EXPECT_EQ(topo.num_vertices(), 2u);
  EXPECT_EQ(topo.graph.num_edges(), 1u);
}

// --- fault-plane flap-schedule round-trips -----------------------------------

TEST_P(FuzzRoundTripTest, FlapScheduleRoundTripsToPristine) {
  const auto topo = topology::make_internet(fuzz_config(GetParam() + 1300));
  const auto& g = topo.graph;
  std::vector<NodeId> members;
  for (NodeId v = 0; v < std::min<NodeId>(10, g.num_vertices()); ++v) {
    members.push_back(v);
  }
  const broker::BrokerSet brokers(g.num_vertices(), members);
  const double baseline = broker::saturated_connectivity(g, brokers);

  std::vector<graph::FailureGroup> groups;
  for (NodeId v = 0; v < std::min<NodeId>(12, g.num_vertices()); ++v) {
    groups.push_back(graph::incident_group(g, v));
  }
  bsr::graph::Rng rng(GetParam() + 4);
  graph::FlapConfig config;
  config.outage_rate = 2.0;
  config.mean_downtime = 4.0;
  config.horizon = 50.0;
  const auto schedule = graph::make_flap_schedule(groups.size(), config, rng);
  ASSERT_FALSE(schedule.empty());

  // Applying the full schedule (every kFail paired with a kHeal) returns
  // the plane to pristine, bit-for-bit: refcounts, counters, connectivity.
  graph::FaultPlane plane(g);
  for (const auto& event : schedule) {
    graph::apply_flap_event(plane, groups, event);
  }
  EXPECT_TRUE(plane.pristine());
  EXPECT_EQ(plane.num_failed_edges(), 0u);
  EXPECT_DOUBLE_EQ(broker::saturated_connectivity(g, brokers, plane), baseline);

  // Any prefix, manually healed back: count outstanding fails per group and
  // undo them — again pristine, again baseline connectivity.
  const std::size_t prefix = schedule.size() / 2;
  std::vector<int> outstanding(groups.size(), 0);
  for (std::size_t i = 0; i < prefix; ++i) {
    graph::apply_flap_event(plane, groups, schedule[i]);
    outstanding[schedule[i].group] +=
        schedule[i].kind == graph::FlapEvent::Kind::kFail ? 1 : -1;
  }
  for (std::size_t group = 0; group < groups.size(); ++group) {
    ASSERT_GE(outstanding[group], 0);
    for (int undo = 0; undo < outstanding[group]; ++undo) {
      plane.heal_group(groups[group]);
    }
  }
  EXPECT_TRUE(plane.pristine());
  EXPECT_DOUBLE_EQ(broker::saturated_connectivity(g, brokers, plane), baseline);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzRoundTripTest,
                         ::testing::Values(1001, 2002, 3003, 4004, 5005, 6006,
                                           7007, 8008));

}  // namespace
}  // namespace bsr
