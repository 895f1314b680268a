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
#include <type_traits>
#include <vector>

#include "clique/common.hpp"
#include "clique/local_graph.hpp"
#include "clique/stop.hpp"
#include "graph/types.hpp"
#include "util/bitkernels.hpp"

namespace c3 {

/// Per-worker state for one sequence of recursive searches: the local graph
/// being searched, instrumentation counters, optional listing or aggregation
/// support, and the per-level scratch (candidate arrays + community masks).
///
/// Aggregation mode (tally non-null, callback null) tallies cliques in
/// closed form. Let S be the local partial clique, I the candidate set and
/// r = |I|. A c == 1 leaf adds 1 to each a in I and to each edge (s, a); a
/// c == 2 leaf adds d(a) = |N(a) ∩ I| to each a in I and to each edge
/// (s, a), and 1 to each edge inside I. The vertices pushed onto S are
/// credited once per push with the count their subtree returns, which sums
/// the leaves' "+r per stack vertex / stack edge" terms. Per-vertex sums
/// collect in local_counts; flush_task_tally() moves them to the tally after
/// each top-level search and credits its outer vertices (the supporting
/// edge or the top vertex, which are not searched).
struct SearchContext {
  const LocalGraph* lg = nullptr;
  /// Words per row the current search reads: lg->words(), or fewer when
  /// every candidate lies in a prefix of the universe (set by the
  /// top-level entries).
  int words = 0;
  bool prune = true;  ///< the relevant-pair criterion (ablation switch)
  LocalCounters* ctr = nullptr;

  /// Listing mode when non-null: cliques are materialized through
  /// member_to_orig into clique_stack and reported via callback.
  const CliqueCallback* callback = nullptr;
  std::vector<node_t> clique_stack;
  const node_t* member_to_orig = nullptr;
  bool stopped = false;  ///< this worker has seen the search's stop

  /// Aggregation mode when non-null: this worker's tally for the query.
  CliqueTally* tally = nullptr;
  /// Edge slot of local edge (a, b) at a * lg->size() + b, both orders,
  /// written by the local-graph builders; only edges' entries are valid.
  std::vector<edge_t> edge_slots;
  std::vector<count_t> local_counts;  ///< per local vertex; all zero between tasks
  std::vector<int> local_stack;       ///< local ids of the partial clique

  /// True when the tally wants per-edge counts.
  [[nodiscard]] bool tally_edges() const noexcept { return !tally->edge.empty(); }

  /// Starts one aggregation task over a local graph of `n` vertices; returns
  /// the edge-slot table the local-graph builder fills, or null when only
  /// vertices are tallied.
  edge_t* begin_tally_task(int n);

  [[nodiscard]] edge_t edge_slot(int a, int b) const noexcept {
    return edge_slots[static_cast<std::size_t>(a) * static_cast<std::size_t>(lg->size()) +
                      static_cast<std::size_t>(b)];
  }

  /// The query's stop source (stop.hpp), shared by all contexts of one
  /// search in every mode. A callback's stop, the cancel token, and the
  /// deadline all reach every worker at its next poll point (each top-level
  /// task, recursion entry, and emission) instead of after its in-flight
  /// top-level task. Bound per search by
  /// QueryScratch::for_each_source and valid only while that search runs; null
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

/// What a recursion does with the cliques it finds (SearchContext): count
/// them, list them through the callback, or tally them per vertex and edge.
/// A template parameter, so each mode's leaves carry no test of the others.
/// Shared by Algorithm 2's recursions here and kcList's (kclist.cpp).
enum class Mode { Count, List, Tally };

/// Calls run(std::integral_constant<Mode, M>) with the context's mode M.
template <typename Run>
count_t with_mode(const SearchContext& ctx, Run&& run) {
  if (ctx.callback != nullptr) return run(std::integral_constant<Mode, Mode::List>{});
  if (ctx.tally != nullptr) return run(std::integral_constant<Mode, Mode::Tally>{});
  return run(std::integral_constant<Mode, Mode::Count>{});
}

/// Ends one aggregation task whose search found `found` cliques among the
/// local vertices below `end`: moves their local_counts into the tally and
/// credits the task's outer vertices `outer` (original ids, outside the
/// search), the edge between them (slot `outer_pair`, used when there are
/// two), and the edge from outer[i] to each local vertex a (slot
/// outer_slot(i, a)).
template <typename OuterSlot>
void flush_task_tally(SearchContext& ctx, count_t found, int end, std::span<const node_t> outer,
                      edge_t outer_pair, OuterSlot&& outer_slot) {
  if (found == 0) return;  // no leaf fired, so local_counts is still zero
  CliqueTally& t = *ctx.tally;
  const bool edges = ctx.tally_edges();
  for (const node_t o : outer) t.vertex[o] += found;
  if (edges && outer.size() == 2) t.edge[outer_pair] += found;
  for (int a = 0; a < end; ++a) {
    count_t& c = ctx.local_counts[static_cast<std::size_t>(a)];
    if (c == 0) continue;
    t.vertex[ctx.member_to_orig[a]] += c;
    if (edges) {
      for (std::size_t i = 0; i < outer.size(); ++i) t.edge[outer_slot(i, a)] += c;
    }
    c = 0;
  }
}

/// Runs Algorithm 2: counts (and in listing mode reports, in aggregation
/// mode tallies) the c-cliques of ctx.lg restricted to candidates `I`
/// (sorted ascending local ids) with membership mask `I_mask`. `level`
/// indexes the scratch arrays and must leave room for (c - 1) / 2 further
/// levels (one per level with c >= 3).
[[nodiscard]] count_t search_cliques(SearchContext& ctx, std::span<const int> I,
                                     const std::uint64_t* I_mask, int c, int level);

/// Top-level entry of Algorithm 2: searches the c-cliques among the local
/// vertices below `end` whose bit is set in `row` (every vertex below `end`
/// when `row` is null). Sizes the scratch, materializes the candidate array
/// and mask in the top-level slot, narrows ctx.words to the words covering
/// `end`, and runs search_cliques. c3List passes row(j) of the per-source
/// local graph and end = j, so the candidates are the community of the arc
/// to local vertex j (Algorithm 1, line 3). c3List-CD passes the mask of
/// V'(e) and the end of its prefix of the source's universe (Algorithm 3,
/// line 5).
[[nodiscard]] count_t search_cliques_below(SearchContext& ctx, const std::uint64_t* row, int end,
                                           int c);

/// Search over *all* vertices of the local graph (candidate set = the full
/// universe). Used by the hybrid's per-vertex subproblems (I = N+(v)).
[[nodiscard]] inline count_t search_cliques_all(SearchContext& ctx, int c) {
  return search_cliques_below(ctx, nullptr, ctx.lg->size(), c);
}

/// Vertex-at-a-time recursion over the candidate mask: pick the next clique
/// vertex x ascending (= respecting the orientation), descend into
/// mask ∩ N(x) ∩ {> x} with c - 1. Only the first p - c + 1 of the mask's p
/// candidates are tried (a later one has too few candidates above it), and
/// counting closes the c == 2 level inside its parent's loop. The
/// arboricity-style counterpart of search_cliques — one vertex per level
/// instead of an edge — shared by ArbCount and kcList's dense-subproblem
/// path. `level` indexes the mask scratch and must leave room for c - 2
/// further levels.
[[nodiscard]] count_t search_cliques_vertex(SearchContext& ctx, const std::uint64_t* mask, int c,
                                            int level);

/// Vertex-growth search over the full local universe (candidate mask = all
/// of ctx.lg); sizes the scratch itself.
[[nodiscard]] count_t search_cliques_vertex_all(SearchContext& ctx, int c);

}  // namespace c3
