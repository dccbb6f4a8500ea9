// Shared route-service lifecycle for perf_obs.
//
// One function template, instantiated once per twin (bare::BareRouteService
// and instr::InstrRouteService) and once on the library's RouteService, so
// both sides of the overhead measurement and perf_obs's recorded runs
// (route_service, slo and episode) run the exact same token stream: fresh
// serving, a broker fault with degraded (stale) serving, and the rebuilt
// epoch.
//
// The result separates serve-phase time from the whole lifecycle: the
// oracle builds inside the constructor and advance() are BFS/union-find
// kernels whose telemetry is priced by perf_obs's dedicated BFS comparison
// already, and at bench scales they dwarf the query loop — folding them
// into one number would let build wall-time drown the per-query cost that
// the tracer and the sketches actually add. serve_seconds times only the
// serve_batch calls; each serve point runs `serve_reps` identical batches
// so the timed region is long enough for min-of-trials to converge.
//
// The digest is folded inline rather than through sim::answer_digest because
// each twin TU renames that symbol (bare_answer_digest / instr_answer_digest)
// and the template must compile identically in both. Same FNV-1a fold over
// the same (status, reachable, dist_bound, next_hop, epoch) tuple; the tick
// fields are deliberately excluded so the digest matches answer_digest's
// cross-thread contract rather than re-pinning the cost model.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "broker/broker_set.hpp"
#include "graph/csr_graph.hpp"
#include "graph/fault_plane.hpp"
#include "sim/demand.hpp"

namespace bsr::bench {

struct RouteLifecycleResult {
  std::uint64_t digest = 0;
  double serve_seconds = 0.0;  // serve_batch calls only, builds excluded
};

template <class Service, class Answer>
RouteLifecycleResult run_route_lifecycle(const bsr::graph::CsrGraph& g,
                                         const bsr::broker::BrokerSet& brokers,
                                         std::span<const bsr::sim::Flow> flows,
                                         int serve_reps = 1) {
  using Clock = std::chrono::steady_clock;
  bsr::graph::FaultPlane faults(g);
  Service service(g, brokers, &faults);
  std::vector<Answer> answers;
  RouteLifecycleResult result;

  std::uint64_t digest = 14695981039346656037ull;
  const auto fold = [&digest](std::uint64_t v) {
    digest ^= v;
    digest *= 1099511628211ull;
  };
  const auto fold_batch = [&] {
    for (const Answer& a : answers) {
      fold(static_cast<std::uint64_t>(a.status));
      fold(a.reachable ? 1u : 0u);
      fold(a.dist_bound);
      fold(a.next_hop);
      fold(a.epoch);
    }
  };
  // Repeated batches at one serve point are identical (admission is off in
  // the default config, so `now` only stamps telemetry): rep count changes
  // the timed work, never the digest.
  const auto serve = [&](double now) {
    const auto begin = Clock::now();
    for (int r = 0; r < serve_reps; ++r) {
      service.serve_batch(flows, now, answers);
    }
    result.serve_seconds +=
        std::chrono::duration<double>(Clock::now() - begin).count();
    fold_batch();
  };

  serve(0.0);  // fresh epoch
  faults.fail_vertex(brokers.members()[0]);
  service.on_fault(1.0);
  serve(1.5);  // degraded, stale-served
  while (service.next_event_time() <= 1e9) {
    service.advance(service.next_event_time());
  }
  serve(20.0);  // rebuilt epoch, fresh again
  fold(service.epoch_id());
  result.digest = digest;
  return result;
}

}  // namespace bsr::bench
