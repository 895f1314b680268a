// c3List — the paper's community-centric k-clique listing algorithm
// (Algorithm 1 driving Algorithm 2).
//
// Pipeline: orient the graph by a total vertex order (Section 4), build and
// sort all edge communities (Section 2.2), then — in parallel over the edges
// supporting at least k-2 triangles — rename each community to a local
// universe, build its indicator-table adjacency, and run the recursive
// search for (k-2)-cliques inside it. Work/depth bounds: Theorem 2.1,
// instantiated by the chosen order per Table 1.
//
// The pipeline is split into a prepare half (order + orientation +
// communities, owned by PreparedGraph in engine.hpp) and the search half
// below, so one preparation can serve many k queries.
#pragma once

#include "clique/common.hpp"
#include "clique/scratch.hpp"
#include "graph/digraph.hpp"
#include "graph/graph.hpp"
#include "parallel/padded.hpp"
#include "triangle/communities.hpp"

namespace c3 {

/// Counts all k-cliques of g. Options select the orientation (exact
/// degeneracy, (2+eps)-approximate, or by id) and the pruning ablation.
[[nodiscard]] CliqueResult c3list_count(const Graph& g, int k, const CliqueOptions& opts = {});

/// Lists all k-cliques of g through `callback` (see CliqueCallback for the
/// early-exit contract). Returns the number of cliques reported.
[[nodiscard]] CliqueResult c3list_list(const Graph& g, int k, const CliqueCallback& callback,
                                       const CliqueOptions& opts = {});

/// Search half of Algorithm 1 on prepared artifacts: requires k >= 3, an
/// oriented `dag` and its edge communities. `callback` may be null
/// (counting); `stop` is the query's stop source (stop.hpp), polled in both
/// modes. `scratch` is this query's leased state — reset here, reused
/// warm across queries, and the only mutable state the search touches, so
/// concurrent callers with distinct leases never interfere. Stats report
/// only the search (preprocess_seconds stays 0).
[[nodiscard]] CliqueResult c3list_search(const Digraph& dag, const EdgeCommunities& comms, int k,
                                         const CliqueCallback* callback, StopSource& stop,
                                         const CliqueOptions& opts, QueryScratch& scratch);

}  // namespace c3
