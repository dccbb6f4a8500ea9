// Importer for the real CAIDA AS-relationship format.
//
// Users holding the actual data the paper used (CAIDA serial-1/serial-2
// as-rel files, e.g. 20140601.as-rel.txt) can run every experiment on it
// instead of the synthetic substitute. Format, one edge per line:
//     <provider-as>|<customer-as>|-1      (provider-to-customer)
//     <peer-as>|<peer-as>|0               (settlement-free peering)
// Fields are split at '|' and whitespace, so spaces around '|' are fine and
// serial-2's trailing fields (|bgp, |mlp, ...) are ignored. AS numbers are
// unsigned 64-bit decimals (an optional '+', no '-'); they are compacted
// to dense ids in numeric order. Optionally, a second file lists IXP
// memberships as "<ixp-name> <as-number>..." per line; IXPs become
// independent vertices appended after the ASes, with peering membership
// edges — the paper's §3 treatment. Both streams are read by the .topo
// loader's line reader: '#' starts a comment anywhere on a line, a CR
// before the newline is ignored, and blank lines are skipped. A malformed
// field throws with its line number; see docs/TOPOLOGY.md.
#pragma once

#include <iosfwd>
#include <string>

#include "topology/internet.hpp"

namespace bsr::topology {

/// Parses an as-rel stream. Node types/tiers are inferred: ASes with
/// customers are transit/access; tier labels come from a provider-depth
/// peel (customer-free, provider-free ASes = tier 1; their customers tier
/// 2; etc., capped at stub). Throws std::runtime_error with line context.
[[nodiscard]] InternetTopology import_caida_as_rel(std::istream& as_rel);

/// Same, plus IXP memberships from the second stream.
[[nodiscard]] InternetTopology import_caida_as_rel(std::istream& as_rel,
                                                   std::istream& ixp_members);

[[nodiscard]] InternetTopology import_caida_files(const std::string& as_rel_path,
                                                  const std::string& ixp_path = "");

}  // namespace bsr::topology
