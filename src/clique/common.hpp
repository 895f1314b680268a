// Shared types of the clique-listing algorithms: options, result statistics,
// the listing callback, and the sinks a search feeds (count, list, tally).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/types.hpp"

namespace c3 {

class Digraph;

/// Which k-clique algorithm to run (see DESIGN.md Section 1, the system
/// inventory).
enum class Algorithm {
  C3List,      ///< the paper's community-centric algorithm (Algorithms 1+2)
  C3ListCD,    ///< Algorithm 3, parameterized by community degeneracy
  Hybrid,      ///< Section 4.2: approximate outer order, exact inner orders
  KCList,      ///< baseline: Danisch et al. (WWW'18)
  ArbCount,    ///< baseline: Shi et al. (parallel clique counting)
  BruteForce,  ///< reference enumerator for testing
};

/// Vertex total order used to orient the graph (Section 4; the ordering
/// heuristics beyond the degeneracy orders follow Li et al. [36], cited in
/// the paper's related work).
enum class VertexOrderKind {
  Default,           ///< what the algorithm's paper uses: exact degeneracy for
                     ///< c3List/kcList, (2+eps)-approximate for ArbCount
  ExactDegeneracy,   ///< Lemma 4.1 — best work, O(n) depth
  ApproxDegeneracy,  ///< Lemma 4.2 — (2+eps)-approximate, polylog depth
  Degree,            ///< non-decreasing degree (a popular cheap heuristic)
  Random,            ///< uniform random (hash of id + order_seed)
  ById,              ///< identity order (for testing / Algorithm 3's inner order)
};

/// Edge total order for the community-degeneracy variant (Section 4.3).
/// Algorithm 4 is the default: it is the order the paper pairs with
/// Algorithm 3, it takes O(log m) parallel rounds instead of m sequential
/// steps, and on the perfbench stand-ins it builds in about half the time of
/// the exact sweep (orkut_like 0.43 -> 0.21 s, dense_blocks 0.26 -> 0.13 s,
/// 4 workers) with the same largest candidate set on orkut, dblp and skitter
/// (DESIGN.md Section 2, "Edge orders"). The exact order stays for Theorem
/// 4.3's gamma <= sigma and for ablations.
enum class EdgeOrderKind {
  ExactCommunityDegeneracy,   ///< greedy — candidate sets <= sigma, linear depth
  ApproxCommunityDegeneracy,  ///< Algorithm 4 — sets <= (3+eps) sigma, polylog depth
};

struct CliqueOptions {
  Algorithm algorithm = Algorithm::C3List;
  VertexOrderKind vertex_order = VertexOrderKind::Default;
  EdgeOrderKind edge_order = EdgeOrderKind::ApproxCommunityDegeneracy;
  /// Approximation slack for the approximate orders.
  double eps = 0.5;
  /// Seed for VertexOrderKind::Random.
  std::uint64_t order_seed = 1;
  /// The paper's relevant-pair criterion (delta_I(u,v) >= c-2). Disabling it
  /// reverts to probing all candidate pairs — the ablation of Figure 2's
  /// pruning rule.
  bool distance_pruning = true;
};

/// Instrumentation counters, aggregated over all workers. These are the
/// empirical counterparts of the quantities in the paper's work analysis:
/// pairs_probed ~ |R^P|, edges_matched ~ |R^E|, intersection_words ~ the
/// intersection work, leaf_work ~ the listing cost L(c, I).
struct CliqueStats {
  count_t cliques = 0;
  count_t top_level_tasks = 0;     ///< edges (or vertices) spawning a search
  count_t recursive_calls = 0;
  count_t pairs_probed = 0;        ///< candidate pairs examined
  count_t edges_matched = 0;       ///< probed pairs that were edges (recursed)
  count_t intersection_words = 0;  ///< 64-bit words touched by intersections
  count_t leaf_work = 0;           ///< work at recursion leaves (c <= 2)
  count_t dense_subproblems = 0;   ///< subproblems routed to the dense
                                   ///< (bitset local-graph) path vs CSR
  node_t gamma = 0;                ///< largest community / candidate set
  node_t order_quality = 0;        ///< max out-degree (or max |V'|) induced by the order
  double preprocess_seconds = 0.0;
  double search_seconds = 0.0;
};

/// Result of one clique query: the global count plus instrumentation.
struct CliqueResult {
  count_t count = 0;
  CliqueStats stats;
};

/// Per-worker counter block merged into CliqueStats at the end of a run.
struct LocalCounters {
  count_t recursive_calls = 0;
  count_t pairs_probed = 0;
  count_t edges_matched = 0;
  count_t intersection_words = 0;
  count_t leaf_work = 0;
  count_t dense_subproblems = 0;

  void merge_into(CliqueStats& s) const noexcept {
    s.recursive_calls += recursive_calls;
    s.pairs_probed += pairs_probed;
    s.edges_matched += edges_matched;
    s.intersection_words += intersection_words;
    s.leaf_work += leaf_work;
    s.dense_subproblems += dense_subproblems;
  }
};

/// Listing callback: receives the k vertices of each clique (original vertex
/// ids, unspecified order). Return true to continue the enumeration, false
/// to stop early (used by the decision/witness queries). May be invoked
/// concurrently from multiple workers.
using CliqueCallback = std::function<bool(std::span<const node_t>)>;

/// One worker's aggregation-mode output: how many cliques contain each
/// vertex and each edge. The leaves of the search add whole candidate sets
/// to these arrays in closed form instead of visiting cliques one by one.
struct CliqueTally {
  std::vector<count_t> vertex;  ///< by original vertex id
  /// By edge slot: the DAG arc id for the orientation-based searches
  /// (CliqueTallies::arcs), the graph edge id otherwise. Empty when only
  /// per-vertex counts are wanted.
  std::vector<count_t> edge;
};

/// One aggregation query's tallies: a CliqueTally per worker, allocated for
/// that query alone and summed once after the search.
struct CliqueTallies {
  /// `workers` tallies of `vertices` vertex counters and `edge_slots` edge
  /// counters each (0 = per-vertex counts only).
  CliqueTallies(std::size_t workers, std::size_t vertices, std::size_t edge_slots)
      : per_worker(workers, CliqueTally{std::vector<count_t>(vertices),
                                        std::vector<count_t>(edge_slots)}) {}

  std::vector<CliqueTally> per_worker;
  /// Set by a search whose edge slots are arc ids of this DAG; null when
  /// they are graph edge ids.
  const Digraph* arcs = nullptr;
};

/// Where a search's cliques go: counted only (both null), handed one at a
/// time to a listing callback, or tallied per vertex and per edge inside
/// the search (aggregation mode).
struct CliqueSink {
  const CliqueCallback* callback = nullptr;
  CliqueTallies* tallies = nullptr;
};

}  // namespace c3
