#include "clique/kclist.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "clique/arbcount.hpp"
#include "clique/local_graph.hpp"
#include "clique/recursive.hpp"

namespace c3 {
namespace {

// Early-stop state, the listing callback and its clique stack ride in w.ctx
// (SearchContext::poll_stop / request_stop), the same stop source the
// community-centric searches poll.

/// One source's sub-DAG Dag[N+(u)] in w.kc, as the recursion reads it.
struct SubDag {
  CliqueScratch& w;
  int d;            // |N+(u)|; local ids are 0..d-1
  bool move_arcs;   // per-edge tallies: each arc id moves with its adj entry
  const std::size_t* offsets;
  int* adj;
  edge_t* arcs;
  int* degrees;
  std::uint8_t* label;

  [[nodiscard]] int* row(int x) const noexcept { return adj + offsets[x]; }
  [[nodiscard]] edge_t* arc_row(int x) const noexcept { return arcs + offsets[x]; }
  /// deg_l, indexed by local id.
  [[nodiscard]] int* degree(int l) const noexcept {
    return degrees + static_cast<std::size_t>(l - 2) * static_cast<std::size_t>(d);
  }

  /// Moves the members of level `below` to the front of x's first `live`
  /// entries (its members at the level above) and returns how many there
  /// are: deg_below(x).
  template <Mode M>
  int partition(int x, int live, std::uint8_t below) const noexcept {
    int* r = row(x);
    int end = live;
    for (int i = 0; i < end;) {
      if (label[r[i]] == below) {
        ++i;
        continue;
      }
      --end;
      std::swap(r[i], r[end]);
      if constexpr (M == Mode::Tally) {
        if (move_arcs) std::swap(arc_row(x)[i], arc_row(x)[end]);
      }
    }
    w.ctr.pairs_probed += static_cast<count_t>(live);
    w.ctr.edges_matched += static_cast<count_t>(end);
    return end;
  }
};

/// Builds w.kc's sub-DAG of Dag[N+(u)]: row x holds the local ids of x's
/// out-neighbours inside N+(u), and deg_{k-1}(x) is its length. The vertex
/// map is reset before the search starts, so no callback can see it dirty.
SubDag build_sub_dag(const Digraph& dag, node_t u, int k, CliqueScratch& w, bool move_arcs) {
  KcListScratch& s = w.kc;
  const auto out = dag.out_neighbors(u);
  const auto d = static_cast<int>(out.size());
  const auto offsets = dag.raw_out_offsets();
  if (w.local_id.size() < dag.num_nodes()) w.local_id.resize(dag.num_nodes(), -1);
  for (int i = 0; i < d; ++i) w.local_id[out[static_cast<std::size_t>(i)]] = i;
  s.offsets.resize(static_cast<std::size_t>(d) + 1);
  s.adj.clear();
  s.arcs.clear();
  s.offsets[0] = 0;
  for (int i = 0; i < d; ++i) {
    const node_t x = out[static_cast<std::size_t>(i)];
    const auto xout = dag.out_neighbors(x);
    for (std::size_t j = 0; j < xout.size(); ++j) {
      const int b = w.local_id[xout[j]];
      if (b < 0) continue;
      s.adj.push_back(b);
      if (move_arcs) s.arcs.push_back(offsets[x] + j);
    }
    s.offsets[static_cast<std::size_t>(i) + 1] = s.adj.size();
    w.ctr.pairs_probed += xout.size();
  }
  w.ctr.edges_matched += s.adj.size();
  for (const node_t x : out) w.local_id[x] = -1;

  s.degree.resize(static_cast<std::size_t>(k - 2) * static_cast<std::size_t>(d));
  s.label.assign(static_cast<std::size_t>(d), static_cast<std::uint8_t>(k - 1));
  if (s.all.size() < static_cast<std::size_t>(d)) {
    const auto from = static_cast<int>(s.all.size());
    s.all.resize(static_cast<std::size_t>(d));
    std::iota(s.all.begin() + from, s.all.end(), from);
  }
  SubDag t{w, d, move_arcs, s.offsets.data(), s.adj.data(), s.arcs.data(), s.degree.data(),
           s.label.data()};
  int* top = t.degree(k - 1);
  for (int x = 0; x < d; ++x) top[x] = static_cast<int>(t.offsets[x + 1] - t.offsets[x]);
  return t;
}

/// The l == 2 leaf: every member v closes deg_2(v) cliques, one with each
/// of the first deg_2(v) entries of its row.
template <Mode M>
count_t leaf(const SubDag& t, std::span<const int> S) {
  CliqueScratch& w = t.w;
  const int* deg = t.degree(2);
  count_t found = 0;
  if constexpr (M == Mode::Count) {
    for (const int v : S) found += static_cast<count_t>(deg[v]);
  } else if constexpr (M == Mode::Tally) {
    std::vector<count_t>& counts = w.ctx.local_counts;
    for (const int v : S) {
      const int* r = t.row(v);
      for (int j = 0; j < deg[v]; ++j) ++counts[static_cast<std::size_t>(r[j])];
      if (t.move_arcs) {
        const edge_t* arcs = t.arc_row(v);
        for (int j = 0; j < deg[v]; ++j) ++w.ctx.tally->edge[arcs[j]];
      }
      counts[static_cast<std::size_t>(v)] += static_cast<count_t>(deg[v]);
      found += static_cast<count_t>(deg[v]);
    }
  } else {
    std::vector<node_t>& stack = w.ctx.clique_stack;
    const node_t* orig = w.ctx.member_to_orig;
    for (const int v : S) {
      const int* r = t.row(v);
      stack.push_back(orig[v]);
      for (int j = 0; j < deg[v] && !w.ctx.poll_stop(); ++j) {
        stack.push_back(orig[r[j]]);
        const bool keep_going = (*w.ctx.callback)(std::span<const node_t>(stack));
        stack.pop_back();
        ++found;
        if (!keep_going) w.ctx.request_stop();
      }
      stack.pop_back();
      if (w.ctx.stopped) break;
    }
  }
  w.ctr.leaf_work += found;
  return found;
}

/// Danisch's kClist recursion at level l over its members S: each member v
/// with deg_l(v) >= l - 1 spawns level l - 1, the first deg_l(v) entries of
/// its row; each of those has its row partitioned so that its first
/// deg_{l-1} entries are its members of the new level. Tally mode credits
/// each arc (v, x) of the spawned level, as the level unwinds, with the
/// growth of x's count below v; the leaf credits the closing arcs.
///
/// Aligned to a cache line: where the function starts decides how its inner
/// loops fall on 64-byte boundaries. On paper_sweep, kcList's counting time
/// moved by 15-20% when unrelated code shifted its start from offset 0 to
/// offset 32 of a line; the alignment keeps it at offset 0.
template <Mode M>
[[gnu::aligned(64)]] count_t descend(const SubDag& t, std::span<const int> S, int l) {
  CliqueScratch& w = t.w;
  ++w.ctr.recursive_calls;
  if (w.ctx.poll_stop()) return 0;
  if (l == 2) return leaf<M>(t, S);

  const int* deg = t.degree(l);
  int* next = t.degree(l - 1);
  const auto level = static_cast<std::uint8_t>(l);
  const auto below = static_cast<std::uint8_t>(l - 1);
  std::vector<count_t>& counts = w.ctx.local_counts;
  std::vector<count_t>& seen = w.kc.seen;
  count_t total = 0;
  for (const int v : S) {
    if (w.ctx.stopped) break;
    if (deg[v] < l - 1) continue;  // too few members to close a clique
    const std::span<const int> children(t.row(v), static_cast<std::size_t>(deg[v]));
    for (const int x : children) t.label[x] = below;
    for (const int x : children) next[x] = t.partition<M>(x, deg[x], below);

    if constexpr (M == Mode::List) w.ctx.clique_stack.push_back(w.ctx.member_to_orig[v]);
    const std::size_t base = seen.size();
    if constexpr (M == Mode::Tally) {
      if (t.move_arcs) {
        for (const int x : children) seen.push_back(counts[static_cast<std::size_t>(x)]);
      }
    }
    const count_t found = descend<M>(t, children, l - 1);
    total += found;
    if constexpr (M == Mode::List) w.ctx.clique_stack.pop_back();
    if constexpr (M == Mode::Tally) {
      counts[static_cast<std::size_t>(v)] += found;
      if (t.move_arcs && found > 0) {
        const edge_t* arcs = t.arc_row(v);
        for (std::size_t j = 0; j < children.size(); ++j) {
          w.ctx.tally->edge[arcs[j]] +=
              counts[static_cast<std::size_t>(children[j])] - seen[base + j];
        }
      }
      seen.resize(base);
    }
    for (const int x : children) t.label[x] = level;
  }
  return total;
}

}  // namespace

CliqueResult kclist_search(const Digraph& dag, int k, const CliqueSink& sink, StopSource& stop,
                           QueryScratch& scratch) {
  const CliqueCallback* callback = sink.callback;
  if (k > 255) throw std::invalid_argument("kclist: k too large");
  // Vertex growth reads no pair criterion.
  CliqueResult result = scratch.for_each_source(
      stop, sink, /*prune=*/false, dag.num_nodes(), [&](CliqueScratch& w, node_t u) {
        const auto out = dag.out_neighbors(u);
        if (static_cast<int>(out.size()) < k - 1) return;

        // Dense-subproblem path (counting and aggregation): when N+(u) is
        // dense enough, re-represent it as a bitset LocalGraph and run the
        // vertex-growth recursion on the SIMD kernels instead of the CSR
        // sub-DAG. The arc bound costs one pass over N+(u).
        if (callback == nullptr) {
          std::int64_t arcs_upper = 0;
          for (const node_t x : out) {
            arcs_upper += std::min<std::int64_t>(
                static_cast<std::int64_t>(dag.out_neighbors(x).size()),
                static_cast<std::int64_t>(out.size()));
          }
          if (use_dense_subproblem(static_cast<int>(out.size()), arcs_upper)) {
            w.count += arbcount_task(dag, u, k, w);
            return;
          }
        }

        CliqueTally* tally = w.ctx.tally;
        const SubDag t = build_sub_dag(dag, u, k, w, tally != nullptr && w.ctx.tally_edges());
        if (callback != nullptr || tally != nullptr) {
          w.member_orig.resize(out.size());
          for (std::size_t i = 0; i < out.size(); ++i) w.member_orig[i] = dag.original_id(out[i]);
          w.ctx.member_to_orig = w.member_orig.data();
        }
        if (callback != nullptr) {
          w.ctx.clique_stack.clear();
          w.ctx.clique_stack.push_back(dag.original_id(u));
        }
        if (tally != nullptr && w.ctx.local_counts.size() < out.size())
          w.ctx.local_counts.resize(out.size());

        const std::span<const int> top(w.kc.all.data(), out.size());
        const count_t found = with_mode(
            w.ctx, [&](auto mode) { return descend<decltype(mode)::value>(t, top, k - 1); });
        w.count += found;
        if (tally != nullptr) {
          // Local vertex a is out[a], the arc from u at that out-list position.
          const node_t outer[] = {dag.original_id(u)};
          const edge_t first_arc = dag.raw_out_offsets()[u];
          flush_task_tally(w.ctx, found, t.d, outer, 0,
                           [&](std::size_t, int a) { return first_arc + static_cast<edge_t>(a); });
        }
      });
  result.stats.top_level_tasks = dag.num_nodes();
  result.stats.order_quality = dag.max_out_degree();
  result.stats.gamma = result.stats.order_quality;
  return result;
}

}  // namespace c3
