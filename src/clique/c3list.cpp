#include "clique/c3list.hpp"

#include "clique/local_graph.hpp"
#include "clique/recursive.hpp"
#include "parallel/reduce.hpp"

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
  // Algorithm 1, line 2: all edges with at least k-2 triangles. They are
  // searched grouped by source vertex, one task per source.
  const auto needed = static_cast<node_t>(k - 2);
  const auto qualifies = [&](edge_t e) { return comms.size(e) >= needed; };
  const count_t tasks = parallel_sum<count_t>(
      0, dag.num_arcs(), [&](std::size_t e) { return qualifies(static_cast<edge_t>(e)) ? 1 : 0; });

  CliqueResult result = scratch.for_each_source(
      stop, sink, opts.distance_pruning, dag.num_nodes(), [&](CliqueScratch& w, node_t u) {
        const auto out = dag.out_neighbors(u);
        // A qualifying arc's target and community are k - 1 out-neighbors.
        if (static_cast<int>(out.size()) < k - 1) return;
        const edge_t first_arc = dag.raw_out_offsets()[u];
        CliqueTally* tally = w.ctx.tally;

        // k = 3 counting and aggregation need no adjacency at all: every
        // community member closes a triangle with the supporting edge.
        if (k == 3 && callback == nullptr) {
          for (edge_t e = first_arc; e < first_arc + out.size(); ++e) {
            const auto members = comms.members(e);
            if (members.empty()) continue;
            if (w.ctx.poll_stop()) return;
            w.count += members.size();
            ++w.ctr.recursive_calls;
            w.ctr.leaf_work += members.size();
            if (tally != nullptr) tally_community_triangles(dag, e, members, *tally);
          }
          return;
        }

        // The universe U(u): the targets of u's qualifying arcs and their
        // communities, a subsequence of N+(u) in rank order. The vertex map
        // marks them (0) and is back to -1 once they are collected.
        if (w.local_id.size() < dag.num_nodes()) w.local_id.resize(dag.num_nodes(), -1);
        for (std::size_t i = 0; i < out.size(); ++i) {
          const edge_t e = first_arc + i;
          if (!qualifies(e)) continue;
          w.local_id[out[i]] = 0;
          for (const node_t x : comms.members(e)) w.local_id[x] = 0;
        }
        w.universe.clear();
        w.universe_arcs.clear();
        for (std::size_t i = 0; i < out.size(); ++i) {
          if (w.local_id[out[i]] < 0) continue;
          w.local_id[out[i]] = -1;
          w.universe.push_back(out[i]);
          w.universe_arcs.push_back(first_arc + i);
        }
        if (w.universe.empty()) return;

        // Rename U(u) to consecutive integers and build the indicator-table
        // adjacency of Dag[U(u)] once; every qualifying arc's community is a
        // masked row of it (Section 2.2 preprocessing).
        const int size = static_cast<int>(w.universe.size());
        build_local_graph(dag, w.universe, w.lg, w.local_id,
                          tally != nullptr ? w.ctx.begin_tally_task(size) : nullptr);
        w.ctx.lg = &w.lg;
        if (callback != nullptr || tally != nullptr) {
          w.member_orig.resize(w.universe.size());
          for (std::size_t a = 0; a < w.universe.size(); ++a)
            w.member_orig[a] = dag.original_id(w.universe[a]);
          w.ctx.member_to_orig = w.member_orig.data();
        }

        // Algorithm 1, line 3, for each qualifying arc (u, v): with j the
        // local id of v, C(u, v) = U(u) ∩ N(v) ∩ {< v} is row j masked to
        // the bits below j. Recurse on it with c = k - 2.
        for (int j = 0; j < size; ++j) {
          const edge_t e = w.universe_arcs[static_cast<std::size_t>(j)];
          if (!qualifies(e)) continue;
          if (w.ctx.poll_stop()) return;
          const node_t v = w.universe[static_cast<std::size_t>(j)];
          if (callback != nullptr) {
            w.ctx.clique_stack.clear();
            w.ctx.clique_stack.push_back(dag.original_id(u));
            w.ctx.clique_stack.push_back(dag.original_id(v));
          }
          const count_t found = search_cliques_below(w.ctx, w.lg.row(j), j, k - 2);
          w.count += found;
          if (tally != nullptr) {
            const node_t outer[] = {dag.original_id(u), dag.original_id(v)};
            flush_task_tally(w.ctx, found, j, outer, e, [&](std::size_t i, int a) {
              return i == 0 ? w.universe_arcs[static_cast<std::size_t>(a)] : w.ctx.edge_slot(a, j);
            });
          }
        }
      });
  result.stats.top_level_tasks = tasks;
  result.stats.order_quality = dag.max_out_degree();
  result.stats.gamma = comms.max_size();
  return result;
}

}  // namespace c3
