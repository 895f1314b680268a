// The pivot pass: every clique size counted in one search.
//
// The paper's pruning (Theorem 2.1) is tuned to one target size k, so a
// spectrum built from per-k searches enumerates the small cliques again for
// every k. The pivot pass instead builds, for each vertex v, a succinct
// clique tree over the local graph of N+(v) (Jain and Seshadhri, "The Power
// of Pivoting for Exact Clique Counting", WSDM 2020; the pivot rule is
// Eppstein–Strash's Bron–Kerbosch pivot). Each root-to-leaf path holds h
// vertices that every clique of the leaf contains and p pivot vertices that
// each may take or leave, so a leaf stands for C(p, i) cliques of size
// h + i. Any acyclic orientation makes v the lowest vertex of exactly the
// cliques its tree counts, so the per-vertex trees count every clique once.
// DESIGN.md Section 2, "The pivot spectrum", has the details.
#pragma once

#include <vector>

#include "clique/common.hpp"
#include "clique/scratch.hpp"
#include "clique/stop.hpp"
#include "graph/digraph.hpp"

namespace c3 {

/// What one pivot pass found.
struct PivotCounts {
  /// counts[k] = number of k-cliques for k = 0..min(kmax, omega), with
  /// counts[0] = 0; every other entry is positive.
  std::vector<count_t> counts;
  /// The pass's work: top_level_tasks (source vertices), dense_subproblems
  /// (local graphs built), recursive_calls (tree nodes), leaf_work (leaves)
  /// and intersection_words; gamma and order_quality are the DAG's largest
  /// out-degree.
  CliqueStats stats;
};

/// Counts the k-cliques of the graph `dag` orients for every k = 1..kmax
/// (kmax >= 1) in one parallel pass over the source vertices. `stop` is
/// polled at each source and each tree node; when a budget or cancel cuts
/// the pass (stop.limit_reached()), the counts are partial and must be
/// dropped. `scratch` is the query's leased per-worker state.
///
/// Counts accumulate in 128 bits. Unless the pass was cut, a count that
/// exceeds count_t throws std::overflow_error naming the smallest such k;
/// no count is ever wrapped.
[[nodiscard]] PivotCounts pivot_spectrum(const Digraph& dag, int kmax, StopSource& stop,
                                         QueryScratch& scratch);

}  // namespace c3
