// Output checks for the pipeline benchmark.
//
// The checks recompute answers with code of their own (a plain union-find
// and a plain BFS in checks.cpp, never the library's engine kernels), so a
// bug shared by the library and its check cannot hide; only the robust check
// calls the library's worst_case_surviving_pairs, which is what it verifies
// robust_maxsg against. Checks run after a pass, never inside a clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "broker/broker_set.hpp"
#include "broker/maxsg.hpp"
#include "broker/robust.hpp"
#include "graph/csr_graph.hpp"
#include "sim/demand.hpp"
#include "sim/route_service.hpp"

namespace bsr::perfbench {

/// Tally of one family of checks: how many outputs were checked, how many
/// failed, and the first failure's description.
struct CheckResult {
  std::size_t checked = 0;
  std::size_t failed = 0;
  std::string first_error;

  [[nodiscard]] bool ok() const noexcept { return failed == 0; }
  void pass() noexcept { ++checked; }
  void fail(const std::string& what);
  void merge(const CheckResult& other);
};

/// MaxSG: `coverage` must equal |B ∪ N(B)| and `final_component` the largest
/// component of G_B, both recomputed on `g` (the original labelling).
[[nodiscard]] CheckResult check_maxsg(const bsr::graph::CsrGraph& g,
                                      const bsr::broker::MaxSgResult& r);

/// robust_maxsg: `surviving_pairs` must equal
/// worst_case_surviving_pairs(g, brokers, redundancy).
[[nodiscard]] CheckResult check_robust(const bsr::graph::CsrGraph& g,
                                       const bsr::broker::RobustResult& r,
                                       std::uint32_t redundancy);

/// Served answers against the independent union-find: every answered query
/// in `answers` must agree on reachability; for the `dist_sample` indices,
/// a finite dist_bound must be >= the BFS distance.
[[nodiscard]] CheckResult check_answers(const bsr::graph::CsrGraph& g,
                                        const bsr::broker::BrokerSet& b,
                                        std::span<const std::uint8_t> down,
                                        std::span<const bsr::sim::Flow> flows,
                                        std::span<const bsr::sim::RouteAnswer> answers,
                                        std::span<const std::size_t> dist_sample);

/// serve_churn audit: every kFresh answer of the live service must match the
/// answer of a service built from scratch on the same fault state. After an
/// in-place patch the live landmark rows predate the heal, so only
/// reachability must match (`exact` false); right after a publish the whole
/// answer must match.
[[nodiscard]] CheckResult check_audit(std::span<const bsr::sim::RouteAnswer> live,
                                      std::span<const bsr::sim::RouteAnswer> scratch,
                                      bool exact);

/// serve_churn run-level bounds: no answer served more than `max_stale`
/// truth events behind, no journal event dropped, no malformed episode.
[[nodiscard]] CheckResult check_churn_bounds(const bsr::sim::RouteServiceStats& stats,
                                             std::uint64_t max_stale,
                                             std::uint64_t journal_dropped,
                                             std::uint64_t malformed_episodes);

/// serve_churn schedule coverage over a whole run: every answer tag, an
/// in-place patch and a discarded rebuild occurred. (Crashes are seeded
/// coins, so a run may see none; discards drive the same retry path.)
[[nodiscard]] CheckResult check_churn_coverage(const bsr::sim::RouteServiceStats& totals);

}  // namespace bsr::perfbench
