// The hybrid approach of Section 4.2.
//
// A (2+eps)-approximate degeneracy order (default eps = 0.5, the paper's
// "2.5-approximate") already guarantees every out-neighborhood has O(s)
// vertices; the depth-expensive exact degeneracy order is then computed only
// *inside* each out-neighborhood subgraph G[N+(v)], where it costs O(s)
// depth instead of O(n). Running the recursive search per vertex with c=k-1
// gives O(k n s ((s+3-k)/2)^(k-2)) work and O(s + k log s + log^2 n) depth —
// the middle row of Table 1.
#pragma once

#include "clique/c3list.hpp"
#include "clique/common.hpp"
#include "clique/scratch.hpp"
#include "graph/digraph.hpp"
#include "graph/graph.hpp"
#include "parallel/padded.hpp"

namespace c3 {

/// Counts all k-cliques with the hybrid scheme.
[[nodiscard]] CliqueResult hybrid_count(const Graph& g, int k, const CliqueOptions& opts = {});

/// Listing variant.
[[nodiscard]] CliqueResult hybrid_list(const Graph& g, int k, const CliqueCallback& callback,
                                       const CliqueOptions& opts = {});

/// Search half on a prepared (approximate-order) orientation: requires
/// k >= 3; computes the exact inner order per out-neighborhood. `callback`
/// may be null (counting); `stop` and `scratch` are as in c3list_search.
[[nodiscard]] CliqueResult hybrid_search(const Digraph& dag, int k,
                                         const CliqueCallback* callback, StopSource& stop,
                                         const CliqueOptions& opts, QueryScratch& scratch);

}  // namespace c3
