// Reference k-clique enumerator for testing.
//
// Straightforward sequential backtracking by vertex id with sorted-vector
// intersections; no orientation tricks, no pruning beyond candidate-set
// size. Exponential in general — use only on small graphs. Every other
// algorithm in the library is validated against this one.
#pragma once

#include "clique/common.hpp"
#include "clique/stop.hpp"
#include "graph/graph.hpp"

namespace c3 {

/// Counts all k-cliques by exhaustive backtracking.
[[nodiscard]] count_t brute_force_count(const Graph& g, int k);

/// Lists all k-cliques (ascending vertex order within each clique).
/// Returns the number reported; stops early when the callback returns false.
count_t brute_force_list(const Graph& g, int k, const CliqueCallback& callback);

/// Both of the above under a query's stop source (stop.hpp): counts when
/// `callback` is null, and polls `stop` before every extension step.
count_t brute_force_search(const Graph& g, int k, const CliqueCallback* callback,
                           StopSource& stop);

}  // namespace c3
