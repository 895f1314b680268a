#include "clique/kclist.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "clique/arbcount.hpp"
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

/// Aggregation mode's kclist_rec. Cliques are tallied per vertex in
/// w.ctx.local_counts, indexed by rank. The l == 2 leaf credits each
/// closing arc (v, x) once; every other arc (v, x) of a clique joins the
/// vertex v that spawned a level to one of that level's candidates x, and
/// is credited as the level unwinds with the growth of x's count below v.
count_t kclist_tally_rec(const Digraph& dag, CliqueScratch& w, int l) {
  ++w.ctr.recursive_calls;
  if (w.ctx.poll_stop()) return 0;
  const std::vector<node_t>& S = w.levels[static_cast<std::size_t>(l)];
  const auto offsets = dag.raw_out_offsets();
  std::vector<count_t>& counts = w.ctx.local_counts;
  std::vector<count_t>& edge = w.ctx.tally->edge;
  const bool edges = w.ctx.tally_edges();

  if (l == 2) {
    count_t found = 0;
    for (const node_t v : S) {
      const auto out = dag.out_neighbors(v);
      count_t closing = 0;
      for (std::size_t i = 0; i < out.size(); ++i) {
        ++w.ctr.pairs_probed;
        if (w.label[out[i]] != 2) continue;
        ++closing;
        ++counts[out[i]];
        if (edges) ++edge[offsets[v] + i];
      }
      counts[v] += closing;
      found += closing;
    }
    w.ctr.leaf_work += found;
    return found;
  }

  count_t total = 0;
  const auto below = static_cast<std::size_t>(l - 1);
  std::vector<node_t>& next = w.levels[below];
  std::vector<edge_t>& arcs = w.level_arcs[below];
  std::vector<count_t>& seen = w.level_seen[below];
  for (const node_t v : S) {
    if (w.ctx.stopped) break;
    next.clear();
    arcs.clear();
    const auto out = dag.out_neighbors(v);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ++w.ctr.pairs_probed;
      if (w.label[out[i]] == l) {
        w.label[out[i]] = l - 1;
        next.push_back(out[i]);
        arcs.push_back(offsets[v] + i);
        ++w.ctr.edges_matched;
      }
    }
    if (static_cast<int>(next.size()) >= l - 1) {
      seen.clear();
      if (edges) {
        for (const node_t x : next) seen.push_back(counts[x]);
      }
      const count_t found = kclist_tally_rec(dag, w, l - 1);
      counts[v] += found;
      total += found;
      if (edges && found > 0) {
        for (std::size_t j = 0; j < next.size(); ++j) edge[arcs[j]] += counts[next[j]] - seen[j];
      }
    }
    for (const node_t x : next) w.label[x] = l;
  }
  return total;
}

}  // namespace

CliqueResult kclist_search(const Digraph& dag, int k, const CliqueSink& sink, StopSource& stop,
                           const CliqueOptions& opts, QueryScratch& scratch) {
  (void)opts;
  const CliqueCallback* callback = sink.callback;
  if (k > 255) throw std::invalid_argument("kclist: k too large");
  CliqueResult result;
  result.stats.order_quality = dag.max_out_degree();
  result.stats.gamma = result.stats.order_quality;

  WallTimer search_timer;
  const node_t n = dag.num_nodes();
  result.stats.top_level_tasks = n;
  scratch.reset_query(stop, sink);

  try {
    parallel_for_dynamic(
        0, n,
        [&](std::size_t u) {
          CliqueScratch& w = scratch.local();
          if (w.ctx.poll_stop()) return;
          if (w.label.size() < static_cast<std::size_t>(n)) w.label.assign(n, 0);
          if (w.levels.size() < static_cast<std::size_t>(k)) {
            w.levels.resize(static_cast<std::size_t>(k));
            w.level_arcs.resize(static_cast<std::size_t>(k));
            w.level_seen.resize(static_cast<std::size_t>(k));
          }
          const auto out = dag.out_neighbors(static_cast<node_t>(u));
          if (static_cast<int>(out.size()) < k - 1) return;

          // Dense-subproblem path (counting and aggregation): when N+(u) is
          // dense enough, re-represent it as a bitset LocalGraph and run the
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
              w.count += arbcount_task(dag, static_cast<node_t>(u), k, w);
              return;
            }
          }

          std::vector<node_t>& top = w.levels[static_cast<std::size_t>(k - 1)];
          top.assign(out.begin(), out.end());
          for (const node_t x : top) w.label[x] = k - 1;
          if (w.ctx.tally == nullptr) {
            if (callback != nullptr) {
              w.clique_stack.clear();
              w.clique_stack.push_back(dag.original_id(static_cast<node_t>(u)));
            }
            w.count += kclist_rec(dag, w, k - 1);
          } else {
            // The task's flush: u's count, and each arc (u, x) gets x's count.
            std::vector<count_t>& counts = w.ctx.local_counts;
            if (counts.size() < static_cast<std::size_t>(n)) counts.resize(n);
            const count_t found = kclist_tally_rec(dag, w, k - 1);
            w.count += found;
            CliqueTally& t = *w.ctx.tally;
            t.vertex[dag.original_id(static_cast<node_t>(u))] += found;
            const edge_t first_arc = dag.raw_out_offsets()[u];
            for (std::size_t i = 0; i < top.size(); ++i) {
              count_t& c = counts[top[i]];
              if (c == 0) continue;
              t.vertex[dag.original_id(top[i])] += c;
              if (!t.edge.empty()) t.edge[first_arc + i] += c;
              c = 0;
            }
          }
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
