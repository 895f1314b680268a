// c3List-CD — Algorithm 3: clique listing parameterized by the community
// degeneracy (Section 4.3).
//
// A total order on the *edges* is computed — greedily removing the edge
// supporting the fewest remaining triangles, or its (3+eps)-approximation
// (Algorithm 4). For each edge e, the search recurses only on V'(e): the
// community of e in the subgraph of edges ordered after e, which has size
// at most sigma (resp. (3+eps) sigma). Every k-clique is found exactly once,
// at its lowest-ordered edge; within a candidate set, any total order on
// the vertices makes the recursion unique through its supporting edge
// (Theorem 4.3).
//
// The search runs one task per source vertex u over the edges u owns (the
// lower-degree endpoint's, ties to the lower id). It orders the universe
// U(u), the union of their V'(e), by decreasing edge-order position of the
// edge to u — this is the inner vertex order — so each V'(e) is a masked
// prefix of U(u), and it inserts the local edges of G[U(u)] as its sweep
// over u's edges passes their positions (DESIGN.md Section 2).
#pragma once

#include "clique/common.hpp"
#include "clique/scratch.hpp"
#include "graph/graph.hpp"
#include "order/community_degeneracy.hpp"

namespace c3 {

/// Search half of Algorithm 3 on a prepared edge order: requires k >= 3.
/// `sink`, `stop` and `scratch` are as in c3list_search (edge slots are
/// graph edge ids).
[[nodiscard]] CliqueResult c3list_cd_search(const Graph& g, const EdgeOrderResult& order, int k,
                                            const CliqueSink& sink, StopSource& stop,
                                            const CliqueOptions& opts, QueryScratch& scratch);

}  // namespace c3
