#include "clique/hybrid.hpp"

#include <vector>

#include "clique/local_graph.hpp"
#include "clique/recursive.hpp"
#include "order/degeneracy.hpp"
#include "util/bitwords.hpp"

namespace c3 {

CliqueResult hybrid_search(const Digraph& dag, int k, const CliqueSink& sink, StopSource& stop,
                           const CliqueOptions& opts, QueryScratch& scratch) {
  const CliqueCallback* callback = sink.callback;
  CliqueResult result = scratch.for_each_source(
      stop, sink, opts.distance_pruning, dag.num_nodes(), [&](CliqueScratch& w, node_t v) {
        const auto members = dag.out_neighbors(v);
        if (static_cast<int>(members.size()) < k - 1) return;

        CliqueTally* tally = w.ctx.tally;
        const int sz = static_cast<int>(members.size());
        edge_t* slots = tally != nullptr ? w.ctx.begin_tally_task(sz) : nullptr;
        if (slots != nullptr) {
          w.edge_slots_aux.resize(static_cast<std::size_t>(sz) * static_cast<std::size_t>(sz));
        }
        // Induce G[N+(v)] in approximate-rank space...
        build_local_graph(dag, members, w.lg_aux, w.local_id,
                          slots != nullptr ? w.edge_slots_aux.data() : nullptr);
        // ...compute its exact degeneracy order on O(s) vertices, so the
        // greedy's linear depth only touches gamma, not n (Section 4.2)...
        const LocalGraph& aux = w.lg_aux;
        degeneracy_sweep(
            static_cast<node_t>(sz), [&](node_t a) { return aux.degree(static_cast<int>(a)); },
            [&](node_t a, auto&& f) {
              bits::for_each_bit(aux.row(static_cast<int>(a)),
                                 static_cast<std::size_t>(aux.words()),
                                 [&](std::size_t b) { f(static_cast<node_t>(b)); });
            },
            w.deg);
        const std::vector<node_t>& inner_order = w.deg.order;
        w.inner_rank.resize(static_cast<std::size_t>(sz));
        for (int r = 0; r < sz; ++r)
          w.inner_rank[inner_order[static_cast<std::size_t>(r)]] = r;
        // ...and rename the subgraph (and its edge slots) into inner-rank space.
        w.lg.reset(sz);
        for (int a = 0; a < sz; ++a) {
          bits::for_each_bit(w.lg_aux.row(a), static_cast<std::size_t>(w.lg_aux.words()),
                             [&](std::size_t b) {
                               if (static_cast<int>(b) <= a) return;
                               const auto ra = static_cast<std::size_t>(
                                   w.inner_rank[static_cast<std::size_t>(a)]);
                               const auto rb = static_cast<std::size_t>(w.inner_rank[b]);
                               w.lg.add_edge(static_cast<int>(ra), static_cast<int>(rb));
                               if (slots == nullptr) return;
                               const edge_t arc =
                                   w.edge_slots_aux[static_cast<std::size_t>(a) *
                                                        static_cast<std::size_t>(sz) + b];
                               slots[ra * static_cast<std::size_t>(sz) + rb] = arc;
                               slots[rb * static_cast<std::size_t>(sz) + ra] = arc;
                             });
        }

        w.ctx.lg = &w.lg;
        if (callback != nullptr || tally != nullptr) {
          w.member_orig.resize(members.size());
          for (int r = 0; r < sz; ++r) {
            const node_t approx_local = inner_order[static_cast<std::size_t>(r)];
            w.member_orig[static_cast<std::size_t>(r)] =
                dag.original_id(members[approx_local]);
          }
          w.ctx.member_to_orig = w.member_orig.data();
        }
        if (callback != nullptr) {
          w.ctx.clique_stack.clear();
          w.ctx.clique_stack.push_back(dag.original_id(v));
        }

        // Search (k-1)-cliques in G[N+(v)]; each completes with v.
        const count_t found = search_cliques_all(w.ctx, k - 1);
        w.count += found;
        if (tally != nullptr) {
          // Inner rank r is members[inner_order[r]], the arc from v at that
          // position of its out-list.
          const node_t outer[] = {dag.original_id(v)};
          const edge_t first_arc = dag.raw_out_offsets()[v];
          flush_task_tally(w.ctx, found, sz, outer, 0, [&](std::size_t, int r) {
            return first_arc + inner_order[static_cast<std::size_t>(r)];
          });
        }
      });
  result.stats.top_level_tasks = dag.num_nodes();
  result.stats.order_quality = dag.max_out_degree();
  result.stats.gamma = result.stats.order_quality;
  return result;
}

}  // namespace c3
