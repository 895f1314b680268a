// Per-query scratch leased by the search halves of all clique algorithms.
//
// Every algorithm's inner loop re-represents a small subproblem (a community,
// a candidate set, an out-neighborhood) in worker-local storage. One
// CliqueScratch is the union of those worker states; one QueryScratch is a
// full query's mutable state — a CliqueScratch per worker — so nothing a
// search touches outlives or escapes the query. The query's stop state is
// not scratch: it is the StopSource (stop.hpp) the caller passes in. A
// PreparedGraph owns a ScratchPool<QueryScratch> and checks one QueryScratch
// out per in-flight query (ScratchLease): sequential queries reuse the same
// warm buffers, concurrent queries each get their own, and the pool grows
// only under actual contention. Fields unused by a given algorithm stay
// empty and cost nothing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "clique/common.hpp"
#include "clique/local_graph.hpp"
#include "clique/recursive.hpp"
#include "clique/stop.hpp"
#include "graph/types.hpp"
#include "parallel/padded.hpp"
#include "parallel/parallel.hpp"
#include "parallel/scratch_pool.hpp"

namespace c3 {

/// Scratch arrays of the small-universe exact degeneracy sweep the hybrid
/// algorithm runs inside each out-neighborhood (see hybrid.cpp).
struct LocalDegeneracyScratch {
  std::vector<int> adj_offsets, adj, degree, bin, verts, pos;
};

/// One worker's reusable state for a sequence of clique searches; handed to
/// the *_search functions inside a QueryScratch. reset_query() clears the
/// per-query accumulators while keeping the capacity of every buffer.
struct CliqueScratch {
  // Shared by the community-centric searches (c3List, c3List-CD, hybrid).
  LocalGraph lg;
  SearchContext ctx;
  std::vector<node_t> member_orig;  // local id -> original vertex id (listing)

  // Hybrid: the out-neighborhood subgraph before the inner-order renaming,
  // plus the inner exact degeneracy order and its scratch.
  LocalGraph lg_aux;
  std::vector<int> inner_order, inner_rank;
  LocalDegeneracyScratch deg;

  // kcList: per-level label array and candidate sets. (ArbCount's per-level
  // candidate masks live in ctx — search_cliques_vertex uses the same
  // aligned mask pool as the edge-growth recursion.)
  std::vector<int> label;
  std::vector<std::vector<node_t>> levels;

  // kcList listing stack (c3List's and ArbCount's live in ctx.clique_stack).
  std::vector<node_t> clique_stack;

  // Per-query accumulators. Early-stop state lives in ctx (stopped / stop /
  // callback) for every algorithm — kcList and ArbCount use only those
  // fields of their SearchContext, so the cross-worker stop logic exists
  // exactly once (SearchContext::poll_stop / request_stop).
  LocalCounters ctr;
  count_t count = 0;

  /// Resets the per-query accumulators and binds the search's stop source
  /// and callback (null = counting); all buffers keep their capacity.
  void reset_query(StopSource& stop, const CliqueCallback* callback) noexcept {
    ctr = {};
    count = 0;
    ctx.stopped = false;
    ctx.stop = &stop;
    ctx.callback = callback;
  }
};

/// One query's complete mutable state: a warm CliqueScratch per worker. The
/// search halves receive exactly one QueryScratch and one StopSource and
/// touch nothing outside them, which is what makes queries against one
/// PreparedGraph safe to issue from many threads at once.
struct QueryScratch {
  PerWorker<CliqueScratch> workers;

  /// Set by a search half whose traversal unwound via an exception (a
  /// throwing listing callback): backtracking was skipped, so invariants
  /// like kcList's all-zeros label array may be broken in the returned
  /// lease. reset_query repairs them, and only then — the common path pays
  /// nothing.
  bool labels_dirty = false;

  /// Prepares every slot for a new search: rebuilds the slot array if the
  /// worker pool grew past it (so local() never clamps), resets the
  /// accumulators, binds `stop` and `callback` to every slot, repairs
  /// exception-dirtied labels, and begins the search on `stop`. Warm buffers
  /// survive.
  void reset_query(StopSource& stop, const CliqueCallback* callback) {
    if (workers.size() < static_cast<std::size_t>(num_workers()))
      workers = PerWorker<CliqueScratch>();
    for (std::size_t i = 0; i < workers.size(); ++i) {
      CliqueScratch& w = workers.slot(i);
      w.reset_query(stop, callback);
      if (labels_dirty) std::fill(w.label.begin(), w.label.end(), 0);
    }
    labels_dirty = false;
    stop.begin_search();
  }

  /// The calling worker's scratch.
  [[nodiscard]] CliqueScratch& local() noexcept { return workers.local(); }

  /// Drains every slot's count and counters into `result` after a search.
  void merge_into(CliqueResult& result) const {
    for (std::size_t i = 0; i < workers.size(); ++i)
      merge_stats(result, workers.slot(i).count, workers.slot(i).ctr);
  }
};

/// RAII checkout of one QueryScratch from an engine's pool.
using ScratchLease = ScratchPool<QueryScratch>::Lease;

}  // namespace c3
