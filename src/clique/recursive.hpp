// The recursive clique search — Algorithm 2 of the paper.
//
// Searches for c-cliques inside a local subgraph (LocalGraph) restricted to
// a candidate set I, growing the partial clique by an *edge* (2 vertices)
// per level:
//
//   * base case c == 1: every candidate completes a clique (line 2);
//   * base case c == 2: every edge inside I completes a clique (line 4);
//   * otherwise: iterate the pairs (u, v) in I x I whose distance
//     delta_I(u, v) — the number of candidates ordered between them — is at
//     least c - 2 (line 6: the relevant-pair pruning of Figure 2), probe the
//     edge (line 7, a bit test), intersect I with the edge's community
//     (line 8, word-parallel AND restricted to the open interval (u, v)),
//     and recurse with c - 2 (line 9).
//
// Correctness hinges on Observation 1: within a clique oriented by a total
// order, the pair (first, last) — the supporting edge — is the unique edge
// whose community contains the rest of the clique, so every clique is
// produced exactly once. The interval restriction in the intersection is
// what enforces "community" (= vertices ordered strictly between the
// endpoints) rather than "common neighborhood".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "clique/common.hpp"
#include "clique/local_graph.hpp"
#include "clique/stop.hpp"
#include "graph/types.hpp"
#include "util/bitkernels.hpp"

namespace c3 {

/// Per-worker state for one sequence of recursive searches: the local graph
/// being searched, instrumentation counters, optional listing support, and
/// the per-level scratch (candidate arrays + community masks).
struct SearchContext {
  const LocalGraph* lg = nullptr;
  bool prune = true;  ///< the relevant-pair criterion (ablation switch)
  LocalCounters* ctr = nullptr;

  /// Listing mode when non-null: cliques are materialized through
  /// member_to_orig into clique_stack and reported via callback.
  const CliqueCallback* callback = nullptr;
  std::vector<node_t> clique_stack;
  const node_t* member_to_orig = nullptr;
  bool stopped = false;  ///< this worker has seen the search's stop

  /// The query's stop source (stop.hpp), shared by all contexts of one
  /// search in counting and listing mode alike. A callback's stop, the
  /// cancel token, and the deadline all reach every worker at its next poll
  /// point (each top-level task, recursion entry, and emission) instead of
  /// after its in-flight top-level task. Bound per search by
  /// QueryScratch::reset_query and valid only while that search runs; null
  /// when the recursion runs standalone, where only a callback stops it.
  StopSource* stop = nullptr;

  /// Refreshes `stopped` from the stop source; returns the merged state.
  [[nodiscard]] bool poll_stop() noexcept {
    if (!stopped && stop != nullptr && stop->poll(polls_)) stopped = true;
    return stopped;
  }

  /// Records a callback's false return locally and broadcasts it.
  void request_stop() noexcept {
    stopped = true;
    if (stop != nullptr) stop->request_stop();
  }

  /// Grows the per-level scratch to cover candidate sets of size `gamma`
  /// and recursion depth `depth` with `words` words per mask.
  void ensure_capacity(int gamma, int depth, int words);

  [[nodiscard]] int* cand_at(int level) noexcept {
    return cand_pool_.data() + static_cast<std::size_t>(level) * cand_stride_;
  }
  [[nodiscard]] std::uint64_t* mask_at(int level) noexcept {
    return mask_pool_.data() + static_cast<std::size_t>(level) * mask_stride_;
  }

 private:
  unsigned polls_ = 0;  ///< this worker's poll count (strides the limit reads)
  std::vector<int> cand_pool_;
  // Community/candidate masks follow the kernel storage contract
  // (util/bitkernels.hpp): 64-byte-aligned pool, stride = the LocalGraph's
  // padded row stride, padding words zero.
  bits::KernelWords mask_pool_;
  std::size_t cand_stride_ = 0;
  std::size_t mask_stride_ = 0;
  std::size_t depth_ = 0;
};

/// Runs Algorithm 2: counts (and in listing mode reports) the c-cliques of
/// ctx.lg restricted to candidates `I` (sorted ascending local ids) with
/// membership mask `I_mask`. `level` indexes the scratch arrays and must
/// leave room for ceil(c/2) further levels.
[[nodiscard]] count_t search_cliques(SearchContext& ctx, std::span<const int> I,
                                     const std::uint64_t* I_mask, int c, int level);

/// Runs the *triangle-growth* generalization the paper's conclusion poses as
/// future work ("extend the cliques by larger motifs such as triangles"):
/// each level adds a triangle (a, x, b) — a/b the extremes and x the minimal
/// internal vertex of the remaining clique — and recurses with c - 3 on
/// B(a,b) ∩ N(x) ∩ {> x}. Uniqueness: (min, second-min, max) of every clique
/// is a canonical triple, so each clique is still produced exactly once.
/// Depth shrinks from ~c/2 to ~c/3 levels.
[[nodiscard]] count_t search_cliques_tri(SearchContext& ctx, std::span<const int> I,
                                         const std::uint64_t* I_mask, int c, int level);

/// Convenience wrapper: search over *all* vertices of the local graph
/// (candidate set = the full universe). Used by the top level of Algorithm 1
/// (I = C(e)), Algorithm 3 (I = V'(e)), and the hybrid's per-vertex
/// subproblems (I = N+(v)).
[[nodiscard]] count_t search_cliques_all(SearchContext& ctx, int c, bool triangle_growth = false);

/// Vertex-at-a-time recursion over the candidate mask: pick the next clique
/// vertex x ascending (= respecting the orientation), descend into
/// mask ∩ N(x) ∩ {> x} with c - 1. The arboricity-style counterpart of
/// search_cliques — one vertex per level instead of an edge — shared by
/// ArbCount and kcList's dense-subproblem path. `level` indexes the mask
/// scratch and must leave room for c - 2 further levels.
[[nodiscard]] count_t search_cliques_vertex(SearchContext& ctx, const std::uint64_t* mask, int c,
                                            int level);

/// Vertex-growth search over the full local universe (candidate mask = all
/// of ctx.lg); sizes the scratch itself.
[[nodiscard]] count_t search_cliques_vertex_all(SearchContext& ctx, int c);

}  // namespace c3
