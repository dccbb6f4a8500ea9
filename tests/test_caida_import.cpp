#include "topology/caida_import.hpp"

#include <gtest/gtest.h>

#include <exception>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "graph/rng.hpp"
#include "reference_ingest.hpp"

namespace bsr::topology {
namespace {

using bsr::graph::NodeId;

// A small hand-written as-rel snippet:
//   174 (Cogent-like) provides 100, 200; peers with 3356.
//   3356 provides 300. 100 provides 400 (making 100 tier-2-ish transit).
constexpr const char* kAsRel =
    "# serial-1 style comment\n"
    "174|100|-1\n"
    "174|200|-1\n"
    "174|3356|0\n"
    "3356|300|-1\n"
    "100|400|-1\n";

TEST(CaidaImport, ParsesEdgesAndRelationships) {
  std::istringstream is(kAsRel);
  const auto topo = import_caida_as_rel(is);
  EXPECT_EQ(topo.num_ases, 6u);  // 100, 174, 200, 300, 400, 3356
  EXPECT_EQ(topo.num_ixps, 0u);
  EXPECT_EQ(topo.graph.num_edges(), 5u);

  // Dense ids follow numeric order: 100->0, 174->1, 200->2, 300->3,
  // 400->4, 3356->5.
  EXPECT_TRUE(topo.relations.is_provider_of(1, 0));   // 174 provides 100
  EXPECT_FALSE(topo.relations.is_provider_of(0, 1));
  EXPECT_TRUE(topo.relations.is_peer(1, 5));          // 174 -- 3356 peer
  EXPECT_TRUE(topo.relations.is_provider_of(0, 4));   // 100 provides 400
}

TEST(CaidaImport, TierInference) {
  std::istringstream is(kAsRel);
  const auto topo = import_caida_as_rel(is);
  // 174 and 3356 have no providers and have customers: tier 1.
  EXPECT_EQ(topo.meta[1].tier, Tier::kTier1);
  EXPECT_EQ(topo.meta[5].tier, Tier::kTier1);
  // 100 has a provider and customers: tier 2 transit.
  EXPECT_EQ(topo.meta[0].tier, Tier::kTier2);
  EXPECT_EQ(topo.meta[0].type, NodeType::kTransitAccess);
  // 200, 300, 400 are customer-only stubs.
  EXPECT_EQ(topo.meta[2].tier, Tier::kStub);
  EXPECT_EQ(topo.meta[4].tier, Tier::kStub);
}

TEST(CaidaImport, IxpMembershipsAppended) {
  std::istringstream as_rel(kAsRel);
  std::istringstream ixps(
      "# name members...\n"
      "DE-CIX 174 3356 100\n"
      "TINY-IX 200 400 99999\n"   // 99999 unknown: skipped, still 2 members
      "TOO-SMALL 300\n");         // 1 member: dropped
  const auto topo = import_caida_as_rel(as_rel, ixps);
  EXPECT_EQ(topo.num_ixps, 2u);
  EXPECT_EQ(topo.num_vertices(), 8u);
  const NodeId decix = 6;
  EXPECT_EQ(topo.meta[decix].type, NodeType::kIxp);
  EXPECT_EQ(topo.graph.degree(decix), 3u);
  EXPECT_TRUE(topo.relations.is_peer(decix, 1));
  const NodeId tiny = 7;
  EXPECT_EQ(topo.graph.degree(tiny), 2u);
}

TEST(CaidaImport, DuplicateEdgesKeepFirstLabel) {
  std::istringstream is(
      "1|2|-1\n"
      "1|2|0\n");  // duplicate with a different label: first one wins
  const auto topo = import_caida_as_rel(is);
  EXPECT_EQ(topo.graph.num_edges(), 1u);
  EXPECT_TRUE(topo.relations.is_provider_of(0, 1));
}

TEST(CaidaImport, MalformedInputThrows) {
  std::istringstream bad_rel("1|2|7\n");
  EXPECT_THROW(import_caida_as_rel(bad_rel), std::runtime_error);
  std::istringstream garbage("not a line\n");
  EXPECT_THROW(import_caida_as_rel(garbage), std::runtime_error);
  std::istringstream empty("# only comments\n");
  EXPECT_THROW(import_caida_as_rel(empty), std::runtime_error);
  EXPECT_THROW(import_caida_files("/nonexistent/as-rel.txt"), std::runtime_error);
}

TEST(CaidaImport, RunsThePipeline) {
  // The imported topology must be usable by the selection machinery.
  std::istringstream is(kAsRel);
  const auto topo = import_caida_as_rel(is);
  EXPECT_NO_THROW({
    const auto tiers = topo.as_only_graph();
    EXPECT_EQ(tiers.num_vertices(), topo.num_ases);
  });
}

// --- differential test against the istringstream importer ---------------------

/// "import_caida: line N" for a parse error, the whole message otherwise.
std::string verdict_key(const std::string& message) {
  const auto at = message.find(": line ");
  if (at == std::string::npos) return message;
  return message.substr(0, message.find(':', at + 2));
}

/// Both importers on the same two streams: each file the old parser
/// imports must give the identical topology, and each it rejects must be
/// rejected at the same line. Returns whether the old parser imported it.
bool expect_same_verdict(const std::string& as_rel, const std::string& ixp) {
  std::optional<InternetTopology> want, got;
  std::string want_error, got_error;
  try {
    std::istringstream a(as_rel), i(ixp);
    want = bsr::test::reference::caida::import_caida_as_rel(a, i);
  } catch (const std::exception& e) {
    want_error = verdict_key(e.what());
  }
  try {
    std::istringstream a(as_rel), i(ixp);
    got = import_caida_as_rel(a, i);
  } catch (const std::exception& e) {
    got_error = verdict_key(e.what());
  }
  SCOPED_TRACE("as-rel:\n" + as_rel + "\nixp:\n" + ixp);
  EXPECT_EQ(got.has_value(), want.has_value()) << got_error << " | " << want_error;
  if (got && want) {
    bsr::test::expect_same_topology(*got, *want);
  } else {
    EXPECT_EQ(got_error, want_error);
  }
  return want.has_value();
}

TEST(CaidaImportDifferential, HandPickedLinesMatchTheOldParser) {
  // serial-1 and serial-2 (trailing |bgp) lines, spaces around '|', CRLF,
  // trailing comments, '+' signs, 19/20/21-digit AS numbers, duplicate and
  // self-loop edges, unknown IXP members.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {kAsRel, ""},
      {"174|100|-1|bgp\n174|3356|0|mlp\n3356|300|-1|bgp\n", ""},
      {"174 | 100 | -1\n174 |3356| 0\n\t3356|\t300|-1\n", ""},
      {"174|100|-1\r\n174|3356|0|bgp\r\n", "IX1 174 100\r\n"},
      {"174|100|-1 # transit\n174|3356|0#peer\n# whole-line comment\n", ""},
      {"+174|+100|-1\n174|3356|+0\n1|2|-01\n", "IX +174 +3356\n"},
      {"1000000000000000000|2|-1\n9999999999999999999|2|0\n", ""},
      {"18446744073709551615|2|-1\n18446744073709551614|18446744073709551615|0\n",
       "MAX 18446744073709551615 2 18446744073709551614\n"},
      {"18446744073709551616|2|-1\n", ""},
      {"100000000000000000000|2|0\n", ""},
      {"1|2|-1\n2|1|0\n1|2|0\n", ""},
      {"5|5|-1\n1|2|-1\n", ""},
      {"5|5|7\n", ""},
      {"1|2|-1\n", "IXA 1 2 99999\nIXB 99999 3\nIXC 1\nIXD 2 1 1\n# done\n\nIXE\n"},
      {"1||2|-1\n|3|4|0\n4|5|0|\n", ""},
      {"1|2\n", ""},
      {"1|2|-1|\n1|x|0\n", ""},
      {"0x10|2|-1\n", ""},
      {"1|2|99999999999\n", ""},
      {"", ""},
      {"# only comments\n", "IX 1 2\n"},
  };
  for (const auto& [as_rel, ixp] : cases) (void)expect_same_verdict(as_rel, ixp);
}

TEST(CaidaImportDifferential, RandomFilesMatchTheOldParser) {
  // Fragments both parsers agree on, valid and invalid alike; the changed
  // verdicts (negative or non-numeric tokens, blank or indented-comment
  // lines, '#' inside an IXP name) have their own tests below.
  const std::vector<std::string> as_tokens = {
      "1", "2", "3", "17", "174", "3356", "+5", "0", "007",
      "1000000000000000000", "9999999999999999999", "18446744073709551615",
      "18446744073709551616", "100000000000000000000", "x", "+", "+-1", "12a"};
  const std::vector<std::string> rel_tokens = {"-1", "0", "+0", "-01", "-1",
                                               "0",  "2", "1",  "-2",  "q"};
  const std::vector<std::string> seps = {"|", "|", "|", " | ", "| ", "\t|", "||"};
  const std::vector<std::string> trailers = {
      "", "", "", "|bgp", "|mlp", "|bgp|x", " # note", "#c", "\r", "|bgp\r", " # c\r", " "};
  const std::vector<std::string> ixp_names = {"DE-CIX", "AMS-IX", "ix1", "5", "  LINX"};
  const std::vector<std::string> member_tokens = {
      "1", "2", "3", "17", "174", "3356", "+5", "0", "99999",
      "18446744073709551615", "007"};
  bsr::graph::Rng rng(20260);
  const auto pick = [&rng](const std::vector<std::string>& from) -> const std::string& {
    return from[rng.uniform(from.size())];
  };
  int imported = 0, rejected = 0;
  for (int round = 0; round < 3000; ++round) {
    // Mostly valid lines, so most files import and the topology is compared.
    const bool clean = rng.uniform01() < 0.8;
    std::string as_rel;
    const std::size_t lines = 1 + rng.uniform(10);
    for (std::size_t l = 0; l < lines; ++l) {
      const double kind = rng.uniform01();
      if (kind < 0.08) {
        as_rel += "# comment|1|2\n";
      } else if (kind < 0.12) {
        as_rel += "\n";
      } else {
        const std::string a = clean ? as_tokens[rng.uniform(9)] : pick(as_tokens);
        const std::string b = clean ? as_tokens[rng.uniform(9)] : pick(as_tokens);
        const std::string rel = clean ? rel_tokens[rng.uniform(4)] : pick(rel_tokens);
        as_rel += (rng.uniform01() < 0.1 ? "  " : "") + a + pick(seps) + b + pick(seps) +
                  rel + pick(trailers) + "\n";
      }
    }
    std::string ixp;
    const std::size_t ixp_lines = rng.uniform(4);
    for (std::size_t l = 0; l < ixp_lines; ++l) {
      if (rng.uniform01() < 0.15) {
        ixp += rng.uniform01() < 0.5 ? "# members\n" : "\n";
        continue;
      }
      std::string line = pick(ixp_names);
      const std::size_t members = rng.uniform(5);
      for (std::size_t m = 0; m < members; ++m) line += " " + pick(member_tokens);
      ixp += line + (rng.uniform01() < 0.2 ? " # trailing\n" : "\n");
    }
    (expect_same_verdict(as_rel, ixp) ? imported : rejected) += 1;
    if (HasFailure()) return;
  }
  // Both outcomes were exercised often.
  EXPECT_GT(imported, 1000);
  EXPECT_GT(rejected, 300);
}

// --- the verdicts that changed ----------------------------------------------

/// The message of the runtime_error the new importer throws ("" if none).
std::string import_error(const std::string& as_rel, const std::string& ixp) {
  std::istringstream a(as_rel), i(ixp);
  try {
    (void)import_caida_as_rel(a, i);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

InternetTopology reference_import(const std::string& as_rel, const std::string& ixp) {
  std::istringstream a(as_rel), i(ixp);
  return bsr::test::reference::caida::import_caida_as_rel(a, i);
}

TEST(CaidaImportVerdicts, NegativeAsNumberExitsWithLineContext) {
  // `>>` into uint64_t used to wrap -5 to 2^64 - 5 and import that AS.
  const std::string as_rel = "1|3|0\n-5|3|0\n";
  EXPECT_EQ(reference_import(as_rel, "").num_ases, 3u);
  EXPECT_NE(import_error(as_rel, "").find("import_caida: line 2: expected"),
            std::string::npos);
  EXPECT_NE(import_error("1|-0|0\n", "").find("line 1"), std::string::npos);
}

TEST(CaidaImportVerdicts, BadMembershipTokenExitsWithLineContext) {
  // The old loop stopped at the first non-number: IXA kept members 1 and 2
  // and silently lost 3 and 4.
  const std::string as_rel = "1|2|-1\n2|3|-1\n3|4|0\n";
  const std::string ixp = "# members\nIXA 1 2 abc 3 4\n";
  const InternetTopology old = reference_import(as_rel, ixp);
  ASSERT_EQ(old.num_ixps, 1u);
  EXPECT_EQ(old.graph.degree(old.num_ases), 2u);
  EXPECT_NE(import_error(as_rel, ixp).find("import_caida: line 2: expected"),
            std::string::npos);
  EXPECT_NE(import_error(as_rel, "IXB 1 -3 4\n").find("line 1"), std::string::npos);
  EXPECT_NE(import_error(as_rel, "IXC 1 2 18446744073709551616\n").find("line 1"),
            std::string::npos);
  EXPECT_NE(import_error(as_rel, "IXD 1 2x\n").find("line 1"), std::string::npos);
}

TEST(CaidaImportVerdicts, BlankAndIndentedCommentLinesAreSkipped) {
  // The old parser threw "expected <as>|<as>|<rel>" on these as-rel lines.
  const std::string as_rel = "1|2|-1\n   \n\t# indented comment\n\r\n2|3|0\n";
  EXPECT_THROW((void)reference_import(as_rel, ""), std::runtime_error);
  std::istringstream a(as_rel), i("");
  bsr::test::expect_same_topology(import_caida_as_rel(a, i),
                                  reference_import("1|2|-1\n2|3|0\n", ""));
  // In the membership stream it turned an indented comment that lists
  // numbers into an IXP named "#".
  EXPECT_EQ(reference_import(as_rel.substr(0, 7), "  # 1 2\n").num_ixps, 1u);
  std::istringstream a2("1|2|-1\n"), i2("  # 1 2\n");
  EXPECT_EQ(import_caida_as_rel(a2, i2).num_ixps, 0u);
}

TEST(CaidaImportVerdicts, HashInsideAnIxpNameStartsAComment) {
  // '#' starts a comment anywhere on a line, as in .topo, so the name "IX"
  // is left with no members; the old parser kept "IX#1" and its members.
  const std::string as_rel = "1|2|-1\n";
  EXPECT_EQ(reference_import(as_rel, "IX#1 1 2\n").num_ixps, 1u);
  std::istringstream a(as_rel), i("IX#1 1 2\n");
  EXPECT_EQ(import_caida_as_rel(a, i).num_ixps, 0u);
}

}  // namespace
}  // namespace bsr::topology
