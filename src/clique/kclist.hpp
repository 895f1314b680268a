// kcList — the baseline of Danisch, Balalau, Sozio (WWW 2018), "Listing
// k-cliques in sparse real-world graphs".
//
// Vertex-centric backtracking over a graph oriented by the *exact*
// degeneracy order: for each vertex u (in parallel), search (k-1)-cliques in
// N+(u) by repeatedly picking a vertex v of the current candidate set and
// descending into N+(v) ∩ S. As in the original kClist implementation, each
// source's search runs on the sub-DAG Dag[N+(u)] in local ids, whose rows
// are partitioned in place so that the first deg_l(x) entries of x's row
// are its neighbours at level l (DESIGN.md Section 2, "kcList's sub-DAG").
// Work O(k m (s/2)^(k-2)), depth O(n + log^2 n) from the sequential order
// computation (Table 1).
#pragma once

#include "clique/common.hpp"
#include "clique/scratch.hpp"
#include "graph/digraph.hpp"

namespace c3 {

/// Search half on a prepared orientation (exact degeneracy by default,
/// matching the original): requires 3 <= k <= 255. `sink`, `stop` and
/// `scratch` are as in c3list_search (edge slots are arc ids of `dag`).
[[nodiscard]] CliqueResult kclist_search(const Digraph& dag, int k, const CliqueSink& sink,
                                         StopSource& stop, QueryScratch& scratch);

}  // namespace c3
