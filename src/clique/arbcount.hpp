// ArbCount — the baseline of Shi, Dhulipala, Shun, "Parallel clique counting
// and peeling algorithms" (2020; GBBS).
//
// Same clique-growing scheme as kcList, with the two changes the paper
// attributes to Shi et al. (Sections 1.2 and 4.1): (i) the orientation uses
// the low-depth (2+eps)-approximate degeneracy order instead of the
// sequential exact one, and (ii) the recursive search runs on *induced
// subgraphs re-represented per top-level vertex* ("improvements in the data
// structure used to represent the graph during the recursive search") — here
// the same renamed bitset representation the core algorithm uses, built
// through the worker's shared vertex map, where candidate-set intersections
// are word-parallel. The vertex-growth recursion (search_cliques_vertex)
// tries only the candidates with enough candidates above them to finish a
// clique, and a counting search closes its last level in the parent's loop
// (DESIGN.md Section 2, "ArbCount's vertex growth"). Work
// O(m (s(1+eps))^(k-2)) in expectation, depth O(k log n + log^2 n) whp.
#pragma once

#include "clique/common.hpp"
#include "clique/scratch.hpp"
#include "graph/digraph.hpp"

namespace c3 {

/// Search half on a prepared orientation: requires k >= 3. `sink`, `stop`
/// and `scratch` are as in c3list_search (edge slots are arc ids of `dag`).
[[nodiscard]] CliqueResult arbcount_search(const Digraph& dag, int k, const CliqueSink& sink,
                                           StopSource& stop, QueryScratch& scratch);

/// One ArbCount task, shared with kcList's dense-subproblem path: induces
/// G[N+(u)] as a bitset local graph and searches it vertex-at-a-time for
/// the (k-1)-cliques that complete with u, in the mode of w's sink (counting,
/// listing or aggregation). Returns the number of k-cliques found.
count_t arbcount_task(const Digraph& dag, node_t u, int k, CliqueScratch& w);

}  // namespace c3
