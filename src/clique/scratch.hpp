// Per-query scratch leased by the search halves of all clique algorithms,
// and the one per-source loop they all run on.
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
// empty and cost nothing. Every local-graph build finds its members through
// one n-sized vertex -> local-id map per worker (CliqueScratch::local_id),
// which is -1 everywhere between builds.
//
// Every search (c3List, c3List-CD, Hybrid, kcList, ArbCount and the pivot
// pass) has one outer shape: a parallel loop over source vertices, each
// running a sequential recursion on a re-represented subgraph.
// QueryScratch::for_each_source is that loop, and the only place that holds
// its scheduling policy and the rule that an expired query runs no task.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "clique/common.hpp"
#include "clique/local_graph.hpp"
#include "clique/recursive.hpp"
#include "clique/stop.hpp"
#include "graph/types.hpp"
#include "order/degeneracy.hpp"
#include "parallel/padded.hpp"
#include "parallel/parallel.hpp"
#include "parallel/scratch_pool.hpp"
#include "util/timer.hpp"

namespace c3 {

/// Per-source state of c3List-CD's search (see c3list_cd.cpp).
struct CdSourceScratch {
  /// An owned qualifying edge e = {u, v}: its edge-order position, the end
  /// of its prefix of U(u), and where its V'(e) (in local ids) starts in
  /// `members`.
  struct Task {
    edge_t e, pos;
    node_t v;
    int end;
    std::size_t first_member;
  };
  /// A local edge {a, b} of G[U(u)] and its bucket: the index of the first
  /// task that reads it.
  struct LocalEdge {
    int a, b, task;
  };
  std::vector<Task> tasks;
  std::vector<int> members;  // every task's V'(e), in local ids
  std::vector<std::pair<edge_t, std::size_t>> by_pos;  // (pos(u, x), slot of x in N(u))
  std::vector<std::size_t> first_cover;  // local id -> first task whose prefix holds it
  std::vector<LocalEdge> edges, bucketed;
  std::vector<edge_t> edge_ids, bucketed_ids;  // graph edge ids; per-edge tallies only
  std::vector<std::size_t> bucket_end;  // bucketed[.. bucket_end[t]) is inserted before task t
  bits::KernelWords mask;               // the current task's V'(e)
};

/// Per-source state of kcList's CSR path (kclist.cpp), after Danisch et al.:
/// the sub-DAG Dag[N+(u)] with local ids = out-list positions 0..d-1, built
/// through CliqueScratch::local_id. Each
/// level l of the recursion keeps deg_l(x) for its members x: the members of
/// level l - 1 below x are the first deg_l(x) entries of x's row, which the
/// level above partitioned in place. Every buffer is rebuilt per source, so
/// an exception thrown mid-search leaves nothing to repair.
struct KcListScratch {
  std::vector<std::size_t> offsets;  // row x is adj[offsets[x] .. offsets[x + 1])
  std::vector<int> adj;       // each row's out-neighbours inside N+(u), in local ids
  std::vector<edge_t> arcs;   // the DAG arc id of each adj entry (per-edge tallies only)
  std::vector<int> degree;    // deg_l(x) at (l - 2) * d + x, for l = 2..k-1
  std::vector<std::uint8_t> label;  // local id -> the lowest level holding it
  std::vector<int> all;             // 0, 1, 2, ...: the top level's members
  std::vector<count_t> seen;  // per-edge tallies: each open level's members' counts at its start
};

/// Per-worker state of the pivot pass (pivot.cpp): the candidate and branch
/// sets of every recursion level, and the histogram of the leaves found.
struct PivotScratch {
  bits::KernelWords sets;  // two sets per level, the local graph's stride each
  /// leaves[h * stride + p]: how many leaves held h vertices and p pivots,
  /// for h = 0..rows-1. The stride grows with the largest p seen. Each
  /// search empties it (rows = 0); the pass sizes it at the worker's first
  /// task.
  std::vector<count_t> leaves;
  std::size_t rows = 0, stride = 0;
};

/// One worker's reusable state for a sequence of clique searches; handed to
/// each task of QueryScratch::for_each_source, which clears the per-query
/// accumulators while keeping the capacity of every buffer.
struct CliqueScratch {
  // Shared by the community-centric searches (c3List, c3List-CD, hybrid).
  LocalGraph lg;
  SearchContext ctx;
  std::vector<node_t> member_orig;  // local id -> original vertex id (listing)

  // The one vertex -> local-id map of every local-graph build: sized to the
  // graph's vertex count and -1 everywhere between builds. build_local_graph
  // (c3List, Hybrid, ArbCount, kcList's dense path, the pivot pass),
  // kcList's sub-DAG, c3List-CD's universe and c3List's universe marks all
  // restore it before any search runs, so no callback sees it dirty.
  std::vector<int> local_id;

  // c3List and c3List-CD: the source vertex's universe U(u) in local-id
  // order (c3List: DAG ids by rank; c3List-CD: vertex ids by decreasing
  // edge-order position of the edge to the source) and the arc or edge from
  // the source to each universe vertex.
  std::vector<node_t> universe;
  std::vector<edge_t> universe_arcs;

  // c3List-CD (c3list_cd.cpp): one source's owned edges and the local edges
  // of G[U(u)], bucketed by the first owned edge that reads them.
  CdSourceScratch cd;

  // Hybrid: the out-neighborhood subgraph before the inner-order renaming,
  // the sweep that computes its exact degeneracy order (deg.order), and
  // that order's inverse.
  LocalGraph lg_aux;
  DegeneracySweep deg;
  std::vector<int> inner_rank;

  // Hybrid aggregation: lg_aux's edge slots, before the inner-order renaming.
  std::vector<edge_t> edge_slots_aux;

  // kcList's CSR path: one source's sub-DAG and its per-level degrees.
  // (ArbCount's and kcList's dense path's candidate masks live in ctx —
  // search_cliques_vertex uses the same aligned mask pool as the edge-growth
  // recursion.)
  KcListScratch kc;

  // Per-query accumulators. Early-stop state and the sink live in ctx
  // (stopped / stop / callback / tally) for every algorithm — kcList and
  // ArbCount use only those fields of their SearchContext (and its listing
  // stack), so the cross-worker stop logic exists exactly once
  // (SearchContext::poll_stop / request_stop).
  LocalCounters ctr;
  count_t count = 0;

  // The pivot pass (pivot.cpp); it builds each N+(v) into `lg` above.
  PivotScratch pivot;
};

/// One query's complete mutable state: a warm CliqueScratch per worker. The
/// search halves receive exactly one QueryScratch and one StopSource and
/// touch nothing outside them, which is what makes queries against one
/// PreparedGraph safe to issue from many threads at once.
struct QueryScratch {
  PerWorker<CliqueScratch> workers;

  /// Runs one search: task(w, u) for every source vertex u in
  /// [0, sources), dynamically scheduled one source at a time, with w the
  /// calling worker's scratch. Before the first task every slot is reset
  /// and bound to `stop`, the sink (slot i gets worker i's tally), its own
  /// counters and the pair criterion `prune`, and the search begins on
  /// `stop`; a task starts only while the search is not stopped, so an
  /// expired query runs none. Returns every worker's count and counters
  /// merged, with the loop's wall time as search_seconds; the caller fills
  /// in the rest of the stats.
  template <typename Task>
  CliqueResult for_each_source(StopSource& stop, const CliqueSink& sink, bool prune,
                               node_t sources, Task&& task) {
    const WallTimer timer;
    reset_query(stop, sink, prune);
    parallel_for_dynamic(
        0, sources,
        [&](std::size_t u) {
          CliqueScratch& w = workers.local();
          if (w.ctx.poll_stop()) return;
          task(w, static_cast<node_t>(u));
        },
        1);
    CliqueResult result;
    for (std::size_t i = 0; i < workers.size(); ++i) {
      result.count += workers.slot(i).count;
      workers.slot(i).ctr.merge_into(result.stats);
    }
    result.stats.cliques = result.count;
    result.stats.search_seconds = timer.seconds();
    return result;
  }

 private:
  /// Rebuilds the slot array if the worker pool grew past it (so local()
  /// never clamps), then clears every slot's accumulators and binds the
  /// query's state; warm buffers survive.
  void reset_query(StopSource& stop, const CliqueSink& sink, bool prune) {
    if (workers.size() < static_cast<std::size_t>(num_workers()))
      workers = PerWorker<CliqueScratch>();
    for (std::size_t i = 0; i < workers.size(); ++i) {
      CliqueScratch& w = workers.slot(i);
      w.ctr = {};
      w.count = 0;
      w.pivot.rows = w.pivot.stride = 0;
      w.ctx.stopped = false;
      w.ctx.stop = &stop;
      w.ctx.callback = sink.callback;
      // A tally covers the query's num_workers(); the slots past it never run.
      w.ctx.tally = sink.tallies != nullptr && i < sink.tallies->per_worker.size()
                        ? &sink.tallies->per_worker[i]
                        : nullptr;
      w.ctx.ctr = &w.ctr;
      w.ctx.prune = prune;
    }
    stop.begin_search();
  }
};

/// RAII checkout of one QueryScratch from an engine's pool.
using ScratchLease = ScratchPool<QueryScratch>::Lease;

}  // namespace c3
