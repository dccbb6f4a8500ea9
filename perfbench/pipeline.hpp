// The broker pipeline the benchmark times: load -> renumber -> MaxSG /
// robust_maxsg -> oracle build -> batched serve -> churn serve with the
// flight recorder -> operator report.
//
// Every workload runs every stage, so every run prints every end-to-end
// metric; a workload differs from the others in its graph and in which
// stage gets the bulk of its time (see sizes_for and README.md). One pass
// is a fixed amount of work derived from the seed and --seconds, so a
// second pass of the same seed repeats every count exactly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "checks.hpp"
#include "inputs.hpp"

namespace bsr::perfbench {

/// Work of one pass; a run makes `passes` of them back to back and every
/// metric is a median (or a total) over all of them, so each metric's
/// samples are spread over the whole run rather than one burst of it.
struct Sizes {
  // stress: the 10x graph, setup = load + renumber, and build_ms and
  // serve_qps from fault-free builds and bulk batches. Otherwise (serve_churn)
  // scale 1.0, setup = load + broker list + recorder + churn service, and
  // build_ms and serve_qps from the churn loop.
  bool stress = false;
  int passes = 3;
  std::uint32_t maxsg_k = 0;    // 0 = planned_broker_count(n)
  int maxsg_reps = 1;
  std::uint32_t robust_k = 8;
  int robust_reps = 1;
  int build_reps = 3;           // fault-free constructions
  int bulk_chunks = 1;          // 110 bulk batches each; a tail per 110 in order
  int churn_cycles = 1;
  int report_renders = 6;       // one per round: the rounds after the churn loop
};

/// Throws std::invalid_argument for an unknown workload.
[[nodiscard]] Sizes sizes_for(const std::string& workload, int seconds);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  CheckResult checks;
  [[nodiscard]] bool correct() const noexcept { return checks.ok(); }
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  Sizes sizes;
  InputFiles inputs;
  /// Where a traced run writes its Perfetto trace and per-layer table;
  /// empty = nowhere.
  std::string out_dir;
};

/// Untraced: one pass, end-to-end metrics. Traced: an untraced reference
/// pass, then a pass with a span around every library call, per-layer
/// metrics and bench.trace_overhead_pct. Progress lines go to `log`.
[[nodiscard]] RunResult run_workload(const RunConfig& config, bool traced,
                                     std::ostream& log);

/// The JSON result line the benchmark prints last.
void write_result_line(std::ostream& os, const RunResult& result);

}  // namespace bsr::perfbench
