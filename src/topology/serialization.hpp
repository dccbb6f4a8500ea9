// Full-topology serialization (graph + node metadata + edge relationships).
//
// A bare edge list loses node types, tiers and business relationships,
// which the policy experiments need. This `.topo` format round-trips an
// InternetTopology exactly, so a user can snapshot a generated instance (or
// import a real dataset once with `brokerctl import-caida`) and feed it to
// every bench via a file instead of the generator.
//
// Format (text, line-oriented, '#' comments):
//   brokerset-topology v1
//   counts <num_ases> <num_ixps>
//   node <id> <type:0..3> <tier:0..4>        (one per vertex)
//   edge <u> <v> <rel:0..2>                  (canonical u < v)
//
// Grammar, exactly as load_topology reads it:
//   * A line ends at '\n'; a last line without one still counts. '#' starts
//     a comment running to the end of its line. A line left holding only
//     ' ', '\t' and '\r' is blank: skipped, but counted in line numbers.
//   * The magic line must equal "brokerset-topology v1" byte for byte once
//     its comment is cut. It takes no trailing whitespace and no '\r', so a
//     file with CRLF line endings throughout is rejected at line 1.
//   * Elsewhere, tokens are separated by runs of ' ', '\t', '\v', '\f' and
//     '\r' (the `istream >>` set), so a '\r' before '\n' is harmless. A
//     record is its tag and its integers and nothing after them.
//   * An integer is an optional '+' or '-' sign and decimal digits (leading
//     zeros allowed). It ends at the first non-digit, which starts the next
//     token: "1x" is the integer 1 and then the token "x". A value outside
//     the 64-bit signed range is malformed.
//   * Exactly num_ases + num_ixps node lines follow counts, each id once and
//     in any order. Edge lines follow them, each edge at most once. Edges in
//     canonical order, ascending (u, v) as save_topology writes them, are
//     the fast path: they fill the CSR directly. Any other order is accepted
//     and costs one sort.
//
// Errors: load_topology throws std::runtime_error reading "load_topology:
// line <n>: <what>", plus a snippet of the line when one is at fault. That
// covers a wrong magic line, a malformed record or trailing tokens, counts
// outside the 32-bit id space, missing node lines (reported at the last line
// read), a node id out of range or repeated, a bad type, tier or
// relationship, edge ids not 0 <= u < v < n, and a read error. A repeated
// edge is reported at the line of its second occurrence, the earliest such
// line in the file, and only once every line has parsed cleanly.
#pragma once

#include <iosfwd>
#include <string>

#include "topology/internet.hpp"

namespace bsr::topology {

/// Writes `topo` to the stream. Deterministic byte-for-byte.
void save_topology(std::ostream& os, const InternetTopology& topo);

/// Writes to a file; throws std::runtime_error on IO failure.
void save_topology_file(const std::string& path, const InternetTopology& topo);

/// Parses a topology in one pass over fixed-size blocks of the stream;
/// throws std::runtime_error with line context on malformed input (see the
/// error contract above).
[[nodiscard]] InternetTopology load_topology(std::istream& is);

[[nodiscard]] InternetTopology load_topology_file(const std::string& path);

}  // namespace bsr::topology
