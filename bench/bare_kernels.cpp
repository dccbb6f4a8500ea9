// Builds the uninstrumented kernel twins declared in bare_kernels.hpp by
// recompiling the library sources with the telemetry compiled out:
//
//   * BSR_OBS_FORCE_OFF makes obs/stats.hpp (and everything layered on it —
//     journal, sketches, query tracing) expand every BSR_* macro to an empty
//     statement in this TU only, exactly as a -DBSR_STATS=OFF build would.
//   * The object-like renames below give the recompiled entry points (and the
//     instrumented templates they instantiate) distinct symbol names.
//     Without them the bare engine::bfs<FaultAwareFilter> instantiation would
//     share a linkonce symbol with the instrumented one from perf_obs.cpp and
//     the linker would quietly collapse both sides of the overhead comparison
//     into whichever copy it picked. The route-service renames additionally
//     keep this TU's out-of-line definitions (RouteService, to_string,
//     answer_digest, audit_answer) from colliding with libbsr_sim's at link
//     time.
//   * All renames sit before the FIRST include, so every header — std
//     headers included — sees them consistently; `to_string` in particular
//     renames both std::to_string's inline definitions and their call sites
//     inside this TU, which is self-consistent and emits no shared symbol.
//
// Everything else the kernels touch is either macro-free inline code
// (identical tokens in both TUs, so shared instantiations are benign) or
// out-of-line library code (connected_components, coverage, the rollback
// union-find, the route service's compaction and lane sweep) that both the
// bare and instrumented paths call identically, so its cost cancels out of
// the overhead delta.
#define BSR_OBS_FORCE_OFF 1
#define bfs bare_bfs
#define unite_star bare_unite_star
#define maxsg bare_maxsg
#define RouteService BareRouteService
#define to_string bare_to_string
#define answer_digest bare_answer_digest
#define audit_answer bare_audit_answer
#include "broker/maxsg.cpp"
#include "sim/route_service.cpp"
#undef bfs
#undef unite_star
#undef maxsg
#undef RouteService
#undef to_string
#undef answer_digest
#undef audit_answer

#include "bare_kernels.hpp"
#include "route_lifecycle.hpp"

namespace bare {

void bfs(const bsr::graph::CsrGraph& g, bsr::graph::NodeId source,
         bsr::graph::engine::Workspace& ws,
         bsr::graph::engine::FaultAwareFilter admit) {
  bsr::graph::engine::bare_bfs(g, source, ws, admit);
}

bsr::broker::MaxSgResult maxsg(const bsr::graph::CsrGraph& g, std::uint32_t k) {
  return bsr::broker::bare_maxsg(g, k);
}

bsr::bench::RouteLifecycleResult route_lifecycle(
    const bsr::graph::CsrGraph& g, const bsr::broker::BrokerSet& brokers,
    std::span<const bsr::sim::Flow> flows, int serve_reps) {
  return bsr::bench::run_route_lifecycle<bsr::sim::BareRouteService,
                                         bsr::sim::RouteAnswer>(
      g, brokers, flows, serve_reps);
}

}  // namespace bare
