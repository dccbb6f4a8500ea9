// Instrumented twins of broker::maxsg and sim::RouteService for perf_obs's
// timed comparison.
//
// The overhead measurement wants both sides of the comparison compiled in
// the same environment — same TU shape, same alignment pinning (see
// bench/CMakeLists.txt) — so layout luck cancels out of the delta. The
// instrumented *library* symbols live in libbsr_broker / libbsr_sim,
// compiled without the bench's alignment flags, so timing them against the
// pinned bare twins mixes telemetry cost with code-placement noise. This TU
// recompiles the same sources with telemetry ON under the bench flags;
// perf_obs times these twins against the bare ones and keeps the library
// symbols for counter capture (the two are token-identical, so the counters
// they bump are too).
//
// `unite_star` / the engine bfs templates are deliberately NOT renamed here:
// with telemetry on this TU's instantiations are token-identical to the
// library's, so sharing the linkonce symbols is harmless. The route-service
// renames exist only because those are out-of-line non-template definitions
// that would otherwise collide with libbsr_sim's at link time; all renames
// sit before the first include so std::to_string stays self-consistent
// (same scheme as bare_kernels.cpp).
#define maxsg instr_maxsg
#define RouteService InstrRouteService
#define to_string instr_to_string
#define answer_digest instr_answer_digest
#define audit_answer instr_audit_answer
#include "broker/maxsg.cpp"
#include "sim/route_service.cpp"
#undef maxsg
#undef RouteService
#undef to_string
#undef answer_digest
#undef audit_answer

#include "instr_kernels.hpp"
#include "route_lifecycle.hpp"

namespace instr {

bsr::broker::MaxSgResult maxsg(const bsr::graph::CsrGraph& g, std::uint32_t k) {
  return bsr::broker::instr_maxsg(g, k);
}

bsr::bench::RouteLifecycleResult route_lifecycle(
    const bsr::graph::CsrGraph& g, const bsr::broker::BrokerSet& brokers,
    std::span<const bsr::sim::Flow> flows, int serve_reps) {
  return bsr::bench::run_route_lifecycle<bsr::sim::InstrRouteService,
                                         bsr::sim::RouteAnswer>(
      g, brokers, flows, serve_reps);
}

}  // namespace instr
