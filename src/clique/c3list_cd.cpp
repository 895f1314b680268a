#include "clique/c3list_cd.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "clique/local_graph.hpp"
#include "clique/recursive.hpp"
#include "parallel/reduce.hpp"

namespace c3 {
namespace {

/// Owner rule: an edge belongs to its lower-degree endpoint, ties to the
/// lower id. A source then owns only edges to vertices of degree >= its own,
/// which bounds its universe by min(d(u), (2m / d(u)) sigma') (DESIGN.md
/// Section 2).
bool owns(const Graph& g, node_t u, node_t v) noexcept {
  const node_t du = g.degree(u);
  const node_t dv = g.degree(v);
  return du < dv || (du == dv && u < v);
}

/// Collects u's owned qualifying edges into w.cd.tasks, in decreasing
/// edge-order position, and their universe U(u) into w.universe: the union
/// of their V'(e), a subset of N(u), with local ids in decreasing pos(u, x).
/// Every member x of V'(e) has pos(u, x) > pos(e), so V'(e) lies in the
/// prefix [0, end(e)) of U(u). Also records each task's end and V'(e) in
/// local ids, the edge from u to each local vertex (w.universe_arcs), and
/// first_cover. Leaves w.local_id mapping U(u) to local ids. Returns
/// false, with nothing collected, when u owns no qualifying edge.
template <typename Qualifies>
bool collect_universe(const Graph& g, const EdgeOrderResult& order, node_t u,
                      Qualifies&& qualifies, CliqueScratch& w) {
  CdSourceScratch& s = w.cd;
  const auto nbrs = g.neighbors(u);
  const auto ids = g.edge_ids(u);
  s.tasks.clear();
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const edge_t e = ids[i];
    if (qualifies(e) && owns(g, u, nbrs[i])) s.tasks.push_back({e, order.pos[e], nbrs[i], 0, 0});
  }
  if (s.tasks.empty()) return false;
  std::sort(s.tasks.begin(), s.tasks.end(),
            [](const auto& x, const auto& y) { return x.pos > y.pos; });

  if (w.local_id.size() < g.num_nodes()) w.local_id.resize(g.num_nodes(), -1);
  for (const auto& t : s.tasks) {
    for (const node_t x : order.candidates(t.e)) w.local_id[x] = 0;
  }
  s.by_pos.clear();
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (w.local_id[nbrs[i]] >= 0) s.by_pos.emplace_back(order.pos[ids[i]], i);
  }
  std::sort(s.by_pos.begin(), s.by_pos.end(),
            [](const auto& x, const auto& y) { return x.first > y.first; });
  const std::size_t size = s.by_pos.size();
  w.universe.resize(size);
  w.universe_arcs.resize(size);
  for (std::size_t a = 0; a < size; ++a) {
    const std::size_t i = s.by_pos[a].second;
    w.universe[a] = nbrs[i];
    w.universe_arcs[a] = ids[i];
    w.local_id[nbrs[i]] = static_cast<int>(a);
  }

  s.members.clear();
  s.first_cover.resize(size);
  std::size_t covered = 0;
  for (std::size_t t = 0; t < s.tasks.size(); ++t) {
    auto& task = s.tasks[t];
    while (covered < size && s.by_pos[covered].first > task.pos) s.first_cover[covered++] = t;
    task.end = static_cast<int>(covered);
    task.first_member = s.members.size();
    for (const node_t x : order.candidates(task.e)) s.members.push_back(w.local_id[x]);
  }
  return true;
}

/// Finds the local edges of G[U(u)], each once at its lower local id, and
/// buckets them by the first task that reads it: the first whose position
/// is below the edge's and whose prefix holds both endpoints. Records graph
/// edge ids when `with_ids`.
void bucket_local_edges(const Graph& g, const EdgeOrderResult& order, bool with_ids,
                        CliqueScratch& w) {
  CdSourceScratch& s = w.cd;
  s.edges.clear();
  s.edge_ids.clear();
  for (std::size_t a = 0; a < w.universe.size(); ++a) {
    const auto xn = g.neighbors(w.universe[a]);
    const auto xids = g.edge_ids(w.universe[a]);
    for (std::size_t i = 0; i < xn.size(); ++i) {
      const int b = w.local_id[xn[i]];
      if (b <= static_cast<int>(a)) continue;
      // The first task covering b reads the edge unless the edge is ordered
      // before it; then a later task with a smaller position does.
      const edge_t p = order.pos[xids[i]];
      std::size_t t = s.first_cover[static_cast<std::size_t>(b)];
      if (s.tasks[t].pos > p) {
        t = static_cast<std::size_t>(
            std::partition_point(s.tasks.begin() + static_cast<std::ptrdiff_t>(t) + 1,
                                 s.tasks.end(), [p](const auto& x) { return x.pos > p; }) -
            s.tasks.begin());
        if (t == s.tasks.size()) continue;
      }
      s.edges.push_back({static_cast<int>(a), b, static_cast<int>(t)});
      if (with_ids) s.edge_ids.push_back(xids[i]);
    }
  }

  // Counting sort by bucket.
  s.bucket_end.assign(s.tasks.size(), 0);
  for (const auto& le : s.edges) ++s.bucket_end[static_cast<std::size_t>(le.task)];
  std::size_t start = 0;
  for (auto& b : s.bucket_end) start += std::exchange(b, start);
  s.bucketed.resize(s.edges.size());
  s.bucketed_ids.resize(s.edge_ids.size());
  for (std::size_t i = 0; i < s.edges.size(); ++i) {
    const std::size_t to = s.bucket_end[static_cast<std::size_t>(s.edges[i].task)]++;
    s.bucketed[to] = s.edges[i];
    if (with_ids) s.bucketed_ids[to] = s.edge_ids[i];
  }
}

}  // namespace

CliqueResult c3list_cd_search(const Graph& g, const EdgeOrderResult& order, int k,
                              const CliqueSink& sink, StopSource& stop,
                              const CliqueOptions& opts, QueryScratch& scratch) {
  const CliqueCallback* callback = sink.callback;
  // Algorithm 3, line 3: every edge whose candidate set can hold k-2 more
  // vertices spawns a search. They are searched grouped by owner, one task
  // per source vertex.
  const auto needed = static_cast<node_t>(k - 2);
  const auto qualifies = [&](edge_t e) { return order.candidate_count(e) >= needed; };
  const count_t tasks = parallel_sum<count_t>(0, g.num_edges(), [&](std::size_t e) {
    return qualifies(static_cast<edge_t>(e)) ? 1 : 0;
  });
  const node_t gamma = parallel_max<node_t>(0, g.num_edges(), 0, [&](std::size_t e) {
    return qualifies(static_cast<edge_t>(e)) ? order.candidate_count(static_cast<edge_t>(e))
                                             : node_t{0};
  });

  // Every source scans its adjacency; skip that when no edge qualifies.
  CliqueResult result = scratch.for_each_source(
      stop, sink, opts.distance_pruning, tasks == 0 ? 0 : g.num_nodes(),
      [&](CliqueScratch& w, node_t u) {
        // A qualifying edge's other endpoint and V'(e) are k - 1 neighbors.
        if (static_cast<int>(g.degree(u)) < k - 1) return;
        CdSourceScratch& s = w.cd;
        if (!collect_universe(g, order, u, qualifies, w)) return;

        // Build G[U(u)] incrementally: each task's local edges go in just
        // before it. k = 3 searches read no adjacency (every V'(e) member
        // closes a triangle), so they insert none.
        const int size = static_cast<int>(w.universe.size());
        CliqueTally* tally = w.ctx.tally;
        edge_t* slots = tally != nullptr ? w.ctx.begin_tally_task(size) : nullptr;
        if (k > 3) {
          bucket_local_edges(g, order, slots != nullptr, w);
        } else {
          s.bucket_end.assign(s.tasks.size(), 0);
        }
        // Cleared before any search runs, so a throwing listing callback
        // cannot leave the map dirty for the next query on this lease.
        for (const node_t x : w.universe) w.local_id[x] = -1;
        w.lg.reset(size);
        w.ctx.lg = &w.lg;
        w.ctx.member_to_orig = w.universe.data();
        const std::size_t words = bits::kernel_stride_words(static_cast<std::size_t>(size));
        if (s.mask.size() < words) s.mask.resize(words);
        bits::clear_words(s.mask.data(), words);

        // Sweep the owned edges in decreasing position. Before edge e, every
        // local edge ordered after e that e's prefix holds is in, so the
        // adjacency the search reads on V'(e) is exactly E[e <] (Algorithm 3,
        // line 4).
        std::size_t inserted = 0;
        for (std::size_t t = 0; t < s.tasks.size(); ++t) {
          if (w.ctx.poll_stop()) return;
          const auto& task = s.tasks[t];
          for (; inserted < s.bucket_end[t]; ++inserted) {
            const auto& le = s.bucketed[inserted];
            w.lg.add_edge(le.a, le.b);
            if (slots != nullptr) {
              const auto a = static_cast<std::size_t>(le.a);
              const auto b = static_cast<std::size_t>(le.b);
              const auto n = static_cast<std::size_t>(size);
              slots[a * n + b] = s.bucketed_ids[inserted];
              slots[b * n + a] = s.bucketed_ids[inserted];
            }
          }
          // The top-level candidates: V'(e) as a mask over its prefix.
          const std::span<const int> members(
              s.members.data() + task.first_member,
              static_cast<std::size_t>(order.candidate_count(task.e)));
          for (const int a : members) bits::set_bit(s.mask.data(), static_cast<std::size_t>(a));
          if (callback != nullptr) {
            w.ctx.clique_stack.clear();
            w.ctx.clique_stack.push_back(u);
            w.ctx.clique_stack.push_back(task.v);
          }
          // Algorithm 3, line 5: recurse on V'(e) with c = k - 2.
          const count_t found = search_cliques_below(w.ctx, s.mask.data(), task.end, k - 2);
          for (const int a : members) bits::clear_bit(s.mask.data(), static_cast<std::size_t>(a));
          w.count += found;
          if (tally != nullptr) {
            const node_t outer[] = {u, task.v};
            flush_task_tally(w.ctx, found, task.end, outer, task.e, [&](std::size_t i, int a) {
              const auto x = static_cast<std::size_t>(a);
              return i == 0 ? w.universe_arcs[x] : g.edge_id(task.v, w.universe[x]);
            });
          }
        }
      });
  result.stats.top_level_tasks = tasks;
  result.stats.order_quality = order.sigma;
  result.stats.gamma = gamma;
  return result;
}

}  // namespace c3
