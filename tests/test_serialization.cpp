#include "topology/serialization.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

namespace bsr::topology {
namespace {

using bsr::graph::NodeId;

InternetTopology tiny() {
  auto cfg = InternetConfig{}.scaled(0.01);
  cfg.seed = 12;
  return make_internet(cfg);
}

TEST(Serialization, RoundTripPreservesEverything) {
  const auto original = tiny();
  std::ostringstream oss;
  save_topology(oss, original);
  std::istringstream iss(oss.str());
  const auto loaded = load_topology(iss);

  EXPECT_EQ(loaded.num_ases, original.num_ases);
  EXPECT_EQ(loaded.num_ixps, original.num_ixps);
  EXPECT_EQ(loaded.graph.edges(), original.graph.edges());
  for (NodeId v = 0; v < original.num_vertices(); ++v) {
    EXPECT_EQ(loaded.meta[v].type, original.meta[v].type) << "v=" << v;
    EXPECT_EQ(loaded.meta[v].tier, original.meta[v].tier) << "v=" << v;
  }
  for (const auto& e : original.graph.edges()) {
    EXPECT_EQ(loaded.relations.rel_canonical(e.u, e.v),
              original.relations.rel_canonical(e.u, e.v));
  }
}

TEST(Serialization, DeterministicBytes) {
  const auto topo = tiny();
  std::ostringstream a, b;
  save_topology(a, topo);
  save_topology(b, topo);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Serialization, RejectsMissingMagic) {
  std::istringstream iss("counts 3 1\n");
  EXPECT_THROW(load_topology(iss), std::runtime_error);
}

TEST(Serialization, RejectsBadNodeLines) {
  std::istringstream missing_nodes(
      "brokerset-topology v1\ncounts 2 0\nnode 0 0 1\n");
  EXPECT_THROW(load_topology(missing_nodes), std::runtime_error);

  std::istringstream bad_type(
      "brokerset-topology v1\ncounts 1 0\nnode 0 9 1\n");
  EXPECT_THROW(load_topology(bad_type), std::runtime_error);

  std::istringstream duplicate(
      "brokerset-topology v1\ncounts 2 0\nnode 0 0 1\nnode 0 0 1\n");
  EXPECT_THROW(load_topology(duplicate), std::runtime_error);
}

TEST(Serialization, RejectsBadEdges) {
  const std::string header =
      "brokerset-topology v1\ncounts 3 0\nnode 0 0 1\nnode 1 0 2\nnode 2 0 4\n";
  std::istringstream non_canonical(header + "edge 2 1 0\n");
  EXPECT_THROW(load_topology(non_canonical), std::runtime_error);
  std::istringstream bad_rel(header + "edge 0 1 7\n");
  EXPECT_THROW(load_topology(bad_rel), std::runtime_error);
  std::istringstream duplicate(header + "edge 0 1 0\nedge 0 1 0\n");
  EXPECT_THROW(load_topology(duplicate), std::runtime_error);
}

TEST(Serialization, CommentsAndBlankLinesIgnored) {
  std::istringstream iss(
      "# a comment\nbrokerset-topology v1\n\ncounts 2 0\n# nodes\n"
      "node 0 0 1\nnode 1 0 4\nedge 0 1 1  # provider edge\n");
  const auto topo = load_topology(iss);
  EXPECT_EQ(topo.num_ases, 2u);
  EXPECT_TRUE(topo.relations.is_provider_of(0, 1));
}

TEST(Serialization, SaveRejectsMisalignedTopology) {
  auto topo = tiny();
  topo.relations = EdgeRelations();
  std::ostringstream no_labels;
  EXPECT_THROW(save_topology(no_labels, topo), std::invalid_argument);
  topo = tiny();
  topo.meta.pop_back();
  std::ostringstream short_meta;
  EXPECT_THROW(save_topology(short_meta, topo), std::invalid_argument);
}

TEST(Serialization, FileRoundTrip) {
  const auto topo = tiny();
  const std::string path = "/tmp/bsr_serialization_test.topo";
  save_topology_file(path, topo);
  const auto loaded = load_topology_file(path);
  EXPECT_EQ(loaded.graph.num_edges(), topo.graph.num_edges());
  EXPECT_THROW(load_topology_file("/nonexistent/x.topo"), std::runtime_error);
}

}  // namespace
}  // namespace bsr::topology
