#include "clique/arbcount.hpp"

#include "clique/local_graph.hpp"
#include "clique/recursive.hpp"

namespace c3 {

// Early-stop state rides in w.ctx (SearchContext::poll_stop / request_stop),
// the same shared-flag mechanism the community-centric searches use. The
// vertex-at-a-time recursion itself lives in recursive.cpp
// (search_cliques_vertex); kcList's dense-subproblem path shares it through
// arbcount_task.

count_t arbcount_task(const Digraph& dag, node_t u, int k, CliqueScratch& w) {
  const auto members = dag.out_neighbors(u);
  CliqueTally* tally = w.ctx.tally;

  // Induce and rename G[N+(u)] (the per-vertex re-representation).
  build_local_graph(dag, members, w.lg, w.local_id,
                    tally != nullptr ? w.ctx.begin_tally_task(static_cast<int>(members.size()))
                                     : nullptr);

  w.ctx.lg = &w.lg;
  ++w.ctr.dense_subproblems;
  if (w.ctx.callback != nullptr || tally != nullptr) {
    w.member_orig.resize(members.size());
    for (std::size_t i = 0; i < members.size(); ++i)
      w.member_orig[i] = dag.original_id(members[i]);
    w.ctx.member_to_orig = w.member_orig.data();
  }
  if (w.ctx.callback != nullptr) {
    w.ctx.clique_stack.clear();
    w.ctx.clique_stack.push_back(dag.original_id(u));
  }

  // Search (k-1)-cliques vertex-at-a-time; each completes with u.
  const count_t found = search_cliques_vertex_all(w.ctx, k - 1);
  if (tally != nullptr) {
    // Local vertex a is members[a], the arc from u at that out-list position.
    const node_t outer[] = {dag.original_id(u)};
    const edge_t first_arc = dag.raw_out_offsets()[u];
    flush_task_tally(w.ctx, found, w.ctx.lg->size(), outer, 0,
                     [&](std::size_t, int a) { return first_arc + static_cast<edge_t>(a); });
  }
  return found;
}

CliqueResult arbcount_search(const Digraph& dag, int k, const CliqueSink& sink, StopSource& stop,
                             QueryScratch& scratch) {
  // Vertex growth reads no pair criterion.
  CliqueResult result = scratch.for_each_source(
      stop, sink, /*prune=*/false, dag.num_nodes(), [&](CliqueScratch& w, node_t u) {
        if (static_cast<int>(dag.out_degree(u)) < k - 1) return;
        w.count += arbcount_task(dag, u, k, w);
      });
  result.stats.top_level_tasks = dag.num_nodes();
  result.stats.order_quality = dag.max_out_degree();
  result.stats.gamma = result.stats.order_quality;
  return result;
}

}  // namespace c3
