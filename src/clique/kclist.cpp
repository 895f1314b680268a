#include "clique/kclist.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "clique/engine.hpp"
#include "clique/local_graph.hpp"
#include "clique/recursive.hpp"
#include "parallel/parallel.hpp"
#include "util/timer.hpp"

namespace c3 {
namespace {

// Early-stop state and the listing callback ride in w.ctx
// (SearchContext::poll_stop / request_stop), the same stop source the
// community-centric searches poll.

count_t kclist_rec(const Digraph& dag, CliqueScratch& w, int l) {
  ++w.ctr.recursive_calls;
  if (w.ctx.poll_stop()) return 0;
  const std::vector<node_t>& S = w.levels[static_cast<std::size_t>(l)];
  const CliqueCallback* callback = w.ctx.callback;

  if (l == 2) {
    // Count the edges that stayed at level 2: each closes a clique.
    count_t found = 0;
    for (const node_t v : S) {
      for (const node_t x : dag.out_neighbors(v)) {
        ++w.ctr.pairs_probed;
        if (w.label[x] != 2) continue;
        if (callback != nullptr && w.ctx.poll_stop()) return found;
        ++found;
        if (callback != nullptr) {
          w.clique_stack.push_back(dag.original_id(v));
          w.clique_stack.push_back(dag.original_id(x));
          if (!(*callback)(std::span<const node_t>(w.clique_stack))) w.ctx.request_stop();
          w.clique_stack.pop_back();
          w.clique_stack.pop_back();
          if (w.ctx.stopped) return found;
        }
      }
    }
    w.ctr.leaf_work += found;
    return found;
  }

  count_t total = 0;
  std::vector<node_t>& next = w.levels[static_cast<std::size_t>(l - 1)];
  for (const node_t v : S) {
    if (w.ctx.stopped) break;
    // Descend into N+(v) ∩ S: exactly the out-neighbors still labeled l.
    next.clear();
    for (const node_t x : dag.out_neighbors(v)) {
      ++w.ctr.pairs_probed;
      if (w.label[x] == l) {
        w.label[x] = l - 1;
        next.push_back(x);
        ++w.ctr.edges_matched;
      }
    }
    if (static_cast<int>(next.size()) >= l - 1) {
      if (callback != nullptr) w.clique_stack.push_back(dag.original_id(v));
      total += kclist_rec(dag, w, l - 1);
      if (callback != nullptr) w.clique_stack.pop_back();
    }
    // Backtrack: restore the labels consumed above.
    for (const node_t x : next) w.label[x] = l;
  }
  return total;
}

}  // namespace

CliqueResult kclist_search(const Digraph& dag, int k, const CliqueCallback* callback,
                           StopSource& stop, const CliqueOptions& opts, QueryScratch& scratch) {
  (void)opts;
  if (k > 255) throw std::invalid_argument("kclist: k too large");
  CliqueResult result;
  result.stats.order_quality = dag.max_out_degree();
  result.stats.gamma = result.stats.order_quality;

  WallTimer search_timer;
  const node_t n = dag.num_nodes();
  result.stats.top_level_tasks = n;
  scratch.reset_query(stop, callback);

  try {
    parallel_for_dynamic(
        0, n,
        [&](std::size_t u) {
          CliqueScratch& w = scratch.local();
          if (w.ctx.poll_stop()) return;
          if (w.label.size() < static_cast<std::size_t>(n)) w.label.assign(n, 0);
          if (w.levels.size() < static_cast<std::size_t>(k))
            w.levels.resize(static_cast<std::size_t>(k));
          const auto out = dag.out_neighbors(static_cast<node_t>(u));
          if (static_cast<int>(out.size()) < k - 1) return;

          // Dense-subproblem path (counting only): when N+(u) is dense
          // enough, re-represent it as a bitset LocalGraph and run the
          // vertex-growth recursion on the SIMD kernels instead of the CSR
          // label filtering. The arc bound costs one pass over N+(u).
          if (callback == nullptr) {
            std::int64_t arcs_upper = 0;
            for (const node_t x : out) {
              arcs_upper += std::min<std::int64_t>(
                  static_cast<std::int64_t>(dag.out_neighbors(x).size()),
                  static_cast<std::int64_t>(out.size()));
            }
            if (use_dense_subproblem(static_cast<int>(out.size()), arcs_upper)) {
              build_local_graph(dag, out, w.lg);
              w.ctx.lg = &w.lg;
              w.ctx.ctr = &w.ctr;
              ++w.ctr.dense_subproblems;
              w.count += search_cliques_vertex_all(w.ctx, k - 1);
              return;
            }
          }

          std::vector<node_t>& top = w.levels[static_cast<std::size_t>(k - 1)];
          top.assign(out.begin(), out.end());
          for (const node_t x : top) w.label[x] = k - 1;
          if (callback != nullptr) {
            w.clique_stack.clear();
            w.clique_stack.push_back(dag.original_id(static_cast<node_t>(u)));
          }
          w.count += kclist_rec(dag, w, k - 1);
          for (const node_t x : top) w.label[x] = 0;
        },
        1);
  } catch (...) {
    // The unwind skipped the label backtracking above; flag the lease so
    // the next query's reset_query re-zeroes before trusting the invariant.
    scratch.labels_dirty = true;
    throw;
  }

  scratch.merge_into(result);
  result.stats.search_seconds = search_timer.seconds();
  return result;
}

CliqueResult kclist_count(const Graph& g, int k, const CliqueOptions& opts) {
  CliqueOptions o = opts;
  o.algorithm = Algorithm::KCList;
  return PreparedGraph(g, o).count(k);
}

CliqueResult kclist_list(const Graph& g, int k, const CliqueCallback& callback,
                         const CliqueOptions& opts) {
  CliqueOptions o = opts;
  o.algorithm = Algorithm::KCList;
  return PreparedGraph(g, o).list(k, callback);
}

}  // namespace c3
