// Loopback serving: a CliqueServer with default ServerOptions in front of a
// CliqueService, driven by closed-loop LineClients (each waits for its
// reply before sending the next request).
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct ServePlan {
  std::vector<std::string> hot;  ///< "<graph> <query>" lines the cache answers after warm-up
  std::vector<std::string> ids;  ///< graphs the misses go to
  /// k of the `list k limit=N workers=1` misses. One worker per miss: with
  /// the whole pool per miss, nproc concurrent misses would ask for nproc^2
  /// threads, and the figures would follow the host's other load more than
  /// the server's own work.
  std::vector<int> miss_ks;
  double max_limit = 1e5;        ///< N is log-uniform in [10, max_limit]
  /// Distinct miss requests the clients draw from. A listing cut at its
  /// limit is a truncated answer, which the cache never stores, so every
  /// draw runs the engine; a bounded pool bounds the direct re-runs that
  /// check the misses' answers.
  std::size_t miss_pool = 256;
  double hot_share = 0.7;
  int clients = 1;
  double seconds = 0.0;          ///< timed phase; 0 = `requests` per client
  std::size_t requests = 0;
  const char* seed_name = "serve";  ///< names the schedule's seed
};

struct ServeOutcome {
  std::vector<double> all_ms;  ///< every timed request's wire latency
  double wall = 0.0;           ///< length of the timed phase
};

/// Warms the hot set (checking each answer against a direct
/// CliqueService::run), runs the timed closed loop, then checks every miss
/// against a direct run of the same request. Reports the net layer metrics:
/// clique.cache_hit_rate, net.hit_ms.p50, net.wire_overhead_ms.p50,
/// net.admission_wait_ms.p99 and clique.service_ms.p99.
ServeOutcome serve_requests(Context& ctx, const c3::CliqueService& service, const ServePlan& plan);

/// A short single-client serve_requests run over a c3List engine of `graph`: the
/// net layer metrics for a batch workload's traced run.
void probe_net(Context& ctx, const c3::Graph& graph);

}  // namespace perfbench
