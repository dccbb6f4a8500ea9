// Seeded inputs of the pipeline benchmark.
//
// Everything a timed run consumes is derived from the run's seed and written
// to files before any clock starts: the scale-1.0 and 10x topologies (saved
// with topology::save_topology_file), the planned broker list (MaxSG on the
// scale-1.0 graph), the gravity flow pools and the churn schedule with its
// crash-injection seed. The program under test receives only these files.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"
#include "sim/demand.hpp"

namespace bsr::perfbench {

/// Simulated time of one serve_churn step, and the churn cycle length. The
/// events of a cycle fall in its first 1000 steps; the rest serve fresh, so
/// one crashed rebuild moves a run's fresh fraction by little.
inline constexpr double kStepDt = 0.01;
inline constexpr std::uint32_t kCycleSteps = 2400;
/// Cycles written to every schedule; a run replays a prefix of them.
inline constexpr std::uint32_t kMaxCycles = 512;
/// Flows in each gravity pool.
inline constexpr std::size_t kFlowPool = std::size_t{1} << 20;
/// MaxSG budget on the 10x graph (n/100 would take minutes per call).
inline constexpr std::uint32_t kStressBrokers = 256;

/// One scheduled truth change: fail or heal the broker of landmark rank
/// `rank` (0 = the highest-degree usable broker of the pristine service).
struct ChurnEvent {
  std::uint64_t step = 0;
  bool fail = true;
  std::uint32_t rank = 0;
};

/// A run's churn schedule. Every cycle has the same template (step offsets),
/// so the mix of serve, patch and publish steps does not depend on the
/// seed; the seed picks which landmarks play each role and where the
/// cycle's audit falls.
///   0     fail A            isolated failure: degrade, rebuild, publish
///   250   heal A            lands while fresh: patched in place
///   350   fail B            overlapping failures ...
///   355   fail C            ... before the rebuild starts
///   380   heal B            lands mid-rebuild: absorbed, build discarded
///   600   heal C            fresh again: patched in place
///   700   fail D, E, F      three events: past the staleness bound, refused
///   900   heal D, E, F      three in-place patches
///   1000+ quiet             fresh serving until the next cycle
struct ChurnSchedule {
  std::uint64_t crash_seed = 0;
  std::vector<ChurnEvent> events;     // sorted by step
  std::vector<std::uint64_t> audits;  // one audited step per cycle, sorted
};

struct InputFiles {
  std::string topo1;     // scale 1.0 .topo
  std::string brokers1;  // MaxSG broker list on topo1, one id per line
  std::string flows1;    // gravity pool on topo1
  std::string churn;     // churn schedule
  std::string topo10;    // 10x .topo (stress only)
  std::string brokers10; // MaxSG broker list (k = kStressBrokers) on topo10 (stress only)
  std::string flows10;   // gravity pool on topo10 (stress only)
};

[[nodiscard]] InputFiles input_files(const std::string& dir);

/// Deterministic seed derivation: one independent stream per input.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) noexcept;

/// MaxSG budget for a topology of n vertices: n / 100 (520 at scale 1.0).
[[nodiscard]] std::uint32_t planned_broker_count(bsr::graph::NodeId n) noexcept;

/// Writes every input of `seed` into `dir` (created if missing); the stress
/// files only when `stress`. `scale` shrinks the base topology and the pool
/// for the self-tests; the benchmark always uses 1.0. Files are written
/// through a temporary name and renamed, so a half-written input is never
/// read.
void generate_inputs(const std::string& dir, std::uint64_t seed, bool stress,
                     double scale = 1.0, std::size_t pool = kFlowPool);

[[nodiscard]] std::vector<bsr::graph::NodeId> read_broker_list(const std::string& path);
[[nodiscard]] std::vector<bsr::sim::Flow> read_flows(const std::string& path);
[[nodiscard]] ChurnSchedule read_churn(const std::string& path);

}  // namespace bsr::perfbench
