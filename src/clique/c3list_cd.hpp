// c3List-CD — Algorithm 3: clique listing parameterized by the community
// degeneracy (Section 4.3).
//
// In addition to a (here: identity) total order on the vertices, a total
// order on the *edges* is computed — greedily removing the edge supporting
// the fewest remaining triangles, or its (3+eps)-approximation (Algorithm 4).
// For each edge e, the search recurses only on V'(e): the community of e in
// the subgraph of edges ordered after e, which has size at most sigma
// (resp. (3+eps) sigma). Every k-clique is found exactly once, at its
// lowest-ordered edge; within a candidate set, the vertex order's supporting
// edge makes the recursion unique (Theorem 4.3).
#pragma once

#include "clique/c3list.hpp"
#include "clique/common.hpp"
#include "clique/scratch.hpp"
#include "graph/graph.hpp"
#include "order/community_degeneracy.hpp"
#include "parallel/padded.hpp"

namespace c3 {

/// Counts all k-cliques with Algorithm 3. `opts.edge_order` selects the
/// exact greedy or the Algorithm 4 approximate edge order.
[[nodiscard]] CliqueResult c3list_cd_count(const Graph& g, int k, const CliqueOptions& opts = {});

/// Listing variant (see CliqueCallback).
[[nodiscard]] CliqueResult c3list_cd_list(const Graph& g, int k, const CliqueCallback& callback,
                                          const CliqueOptions& opts = {});

/// Runs Algorithm 3 on a precomputed edge order (exposed for benches that
/// want to time the search separately from the preprocessing).
[[nodiscard]] CliqueResult c3list_cd_count_with_order(const Graph& g, int k,
                                                      const EdgeOrderResult& order,
                                                      const CliqueOptions& opts = {});

/// Search half of Algorithm 3 on a prepared edge order: requires k >= 3.
/// `callback` may be null (counting); `stop` and `scratch` are as in
/// c3list_search.
[[nodiscard]] CliqueResult c3list_cd_search(const Graph& g, const EdgeOrderResult& order, int k,
                                            const CliqueCallback* callback, StopSource& stop,
                                            const CliqueOptions& opts, QueryScratch& scratch);

}  // namespace c3
