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

#include "clique/c3list.hpp"
#include "clique/common.hpp"
#include "clique/scratch.hpp"
#include "graph/digraph.hpp"
#include "graph/graph.hpp"
#include "parallel/padded.hpp"

namespace c3 {

/// Counts all k-cliques with kcList. Honors opts.vertex_order (exact
/// degeneracy by default, matching the original).
[[nodiscard]] CliqueResult kclist_count(const Graph& g, int k, const CliqueOptions& opts = {});

/// Listing variant.
[[nodiscard]] CliqueResult kclist_list(const Graph& g, int k, const CliqueCallback& callback,
                                       const CliqueOptions& opts = {});

/// Search half on a prepared orientation: requires k >= 3. `sink`, `stop`
/// and `scratch` are as in c3list_search (edge slots are arc ids of `dag`).
[[nodiscard]] CliqueResult kclist_search(const Digraph& dag, int k, const CliqueSink& sink,
                                         StopSource& stop, const CliqueOptions& opts,
                                         QueryScratch& scratch);

}  // namespace c3
