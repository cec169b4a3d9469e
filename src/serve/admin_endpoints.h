#ifndef TOPKDUP_SERVE_ADMIN_ENDPOINTS_H_
#define TOPKDUP_SERVE_ADMIN_ENDPOINTS_H_

#include "obs/admin_server.h"
#include "serve/service.h"

namespace topkdup::serve {

/// Registers the standard introspection endpoints for `service` on
/// `server` (call before server.Start(); `service` must outlive it):
///
///   /metrics        Prometheus text: the full global registry through
///                   metrics::PrometheusText (per-dataset breaker state,
///                   per-reason sheds, and per-endpoint admin counters
///                   render as labeled series).
///   /healthz        Liveness: 200 "ok" while the process serves at all.
///   /readyz         Readiness from QueryService::Health().ready — 200
///                   "ready" or 503 "unready" (breakers all open, or no
///                   workers).
///   /statusz        One JSON object: build info, uptime, queue depth,
///                   inflight, admission totals, index-cache hit rate,
///                   warmed-index bytes, breaker state and measured cost
///                   model per dataset, request-log counters, trace-ring
///                   occupancy, process self-stats (RSS, open fds), and
///                   the top CPU consumers (datasets/stages) over the
///                   attribution window.
///   /tracez         Chrome-trace JSON snapshot of the always-on span
///                   ring (load in chrome://tracing or Perfetto).
///   /debug/queries  RequestLog::DebugQueriesJson() — captured slow
///                   queries with their explain reports, plus the recent
///                   emitted request-log lines.
///   /debug/profile  On-demand sampling CPU profile: arms the SIGPROF
///                   profiler for `?seconds=N` (default 1, clamped to
///                   [0.05, 30]) and answers with collapsed-stack text
///                   for flamegraph.pl. 409 when a session is already
///                   armed. The admin plane serves one connection at a
///                   time, so other admin requests queue in the backlog
///                   for the window — query serving is unaffected (the
///                   profiler only samples, never blocks workers).
void RegisterAdminEndpoints(obs::AdminServer& server,
                            const QueryService& service);

}  // namespace topkdup::serve

#endif  // TOPKDUP_SERVE_ADMIN_ENDPOINTS_H_
