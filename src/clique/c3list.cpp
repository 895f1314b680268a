#include "clique/c3list.hpp"

#include <vector>

#include "clique/engine.hpp"
#include "clique/local_graph.hpp"
#include "clique/recursive.hpp"
#include "parallel/pack.hpp"
#include "parallel/parallel.hpp"
#include "util/timer.hpp"

namespace c3 {
namespace {

/// Aggregation at k = 3: arc e = (u, v) and each member w of its community
/// form one triangle.
void tally_community_triangles(const Digraph& dag, edge_t e, std::span<const node_t> members,
                               CliqueTally& t) {
  const node_t u = dag.arc_source(e);
  const node_t v = dag.arc_target(e);
  const count_t r = members.size();
  t.vertex[dag.original_id(u)] += r;
  t.vertex[dag.original_id(v)] += r;
  for (const node_t w : members) ++t.vertex[dag.original_id(w)];
  if (t.edge.empty()) return;
  t.edge[e] += r;
  for (const node_t w : members) {
    ++t.edge[dag.arc_id(u, w)];
    ++t.edge[dag.arc_id(w, v)];
  }
}

}  // namespace

CliqueResult c3list_search(const Digraph& dag, const EdgeCommunities& comms, int k,
                           const CliqueSink& sink, StopSource& stop, const CliqueOptions& opts,
                           QueryScratch& scratch) {
  const CliqueCallback* callback = sink.callback;
  CliqueResult result;
  result.stats.order_quality = dag.max_out_degree();
  result.stats.gamma = comms.max_size();

  WallTimer search_timer;
  // Algorithm 1, line 2: all edges with at least k-2 triangles.
  const auto needed = static_cast<node_t>(k - 2);
  const std::vector<edge_t> tasks = pack_index<edge_t>(
      dag.num_arcs(), [&](std::size_t e) { return comms.size(static_cast<edge_t>(e)) >= needed; });
  result.stats.top_level_tasks = tasks.size();

  scratch.reset_query(stop, sink);

  parallel_for_dynamic(
      0, tasks.size(),
      [&](std::size_t t) {
        CliqueScratch& w = scratch.local();
        if (w.ctx.poll_stop()) return;
        const edge_t e = tasks[t];
        const auto members = comms.members(e);

        CliqueTally* tally = w.ctx.tally;

        // k = 3 counting and aggregation need no adjacency at all: every
        // community member closes a triangle with the supporting edge.
        if (k == 3 && callback == nullptr) {
          w.count += members.size();
          ++w.ctr.recursive_calls;
          w.ctr.leaf_work += members.size();
          if (tally != nullptr) tally_community_triangles(dag, e, members, *tally);
          return;
        }

        // Rename C(e) to consecutive integers and build the indicator-table
        // adjacency of Dag[C(e)] (Section 2.2 preprocessing).
        const int size = static_cast<int>(members.size());
        build_local_graph(dag, members, w.lg,
                          tally != nullptr ? w.ctx.begin_tally_task(size) : nullptr);

        const node_t u = dag.arc_source(e);
        const node_t v = dag.arc_target(e);
        w.ctx.lg = &w.lg;
        w.ctx.prune = opts.distance_pruning;
        w.ctx.ctr = &w.ctr;
        if (callback != nullptr || tally != nullptr) {
          w.member_orig.resize(members.size());
          for (std::size_t i = 0; i < members.size(); ++i)
            w.member_orig[i] = dag.original_id(members[i]);
          w.ctx.member_to_orig = w.member_orig.data();
        }
        if (callback != nullptr) {
          w.ctx.clique_stack.clear();
          w.ctx.clique_stack.push_back(dag.original_id(u));
          w.ctx.clique_stack.push_back(dag.original_id(v));
        }

        // Algorithm 1, line 3: recurse on the community with c = k - 2.
        const count_t found = search_cliques_all(w.ctx, k - 2, opts.triangle_growth);
        w.count += found;
        if (tally != nullptr) {
          const node_t outer[] = {dag.original_id(u), dag.original_id(v)};
          flush_task_tally(w.ctx, found, outer, e, [&](std::size_t i, int a) {
            const node_t x = members[static_cast<std::size_t>(a)];
            return i == 0 ? dag.arc_id(u, x) : dag.arc_id(x, v);
          });
        }
      },
      1);

  scratch.merge_into(result);
  result.stats.search_seconds = search_timer.seconds();
  return result;
}

CliqueResult c3list_count(const Graph& g, int k, const CliqueOptions& opts) {
  CliqueOptions o = opts;
  o.algorithm = Algorithm::C3List;
  return PreparedGraph(g, o).count(k);
}

CliqueResult c3list_list(const Graph& g, int k, const CliqueCallback& callback,
                         const CliqueOptions& opts) {
  CliqueOptions o = opts;
  o.algorithm = Algorithm::C3List;
  return PreparedGraph(g, o).list(k, callback);
}

}  // namespace c3
