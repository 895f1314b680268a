// Exact degeneracy ordering (Section 4.1, Lemma 4.1).
//
// The degeneracy order repeatedly removes a vertex of minimum degree in the
// remaining subgraph (Matula & Beck's smallest-last order). Orienting the
// graph by this order bounds every out-degree by the degeneracy s, and
// therefore every edge community by s - 1 — the quantity gamma that drives
// the work bound of Theorem 2.1. O(n + m) work, O(n) depth (inherently
// sequential peeling).
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace c3 {

struct DegeneracyResult {
  /// order[i] = the vertex peeled i-th; orienting by this order gives
  /// max out-degree == degeneracy.
  std::vector<node_t> order;
  /// The degeneracy s of the graph (max degree at removal time).
  node_t degeneracy = 0;
  /// core[v] = the core number of v (largest j such that v belongs to the
  /// j-core); max over v equals the degeneracy.
  std::vector<node_t> core;
};

/// Computes the exact degeneracy order with a bucket queue.
[[nodiscard]] DegeneracyResult degeneracy_order(const Graph& g);

/// The arrays of degeneracy_sweep, reused across calls so that repeated
/// sweeps over small graphs do not allocate. After a sweep, order[i] is the
/// vertex peeled i-th and deg[v] is the core number of v.
struct DegeneracySweep {
  std::vector<node_t> order, deg, bin, verts, pos;
};

/// The Batagelj-Zaversnik bin-sort peeling of vertices 0..n-1, O(n + m):
/// degeneracy_order runs it on a Graph, and the hybrid algorithm on each
/// out-neighborhood's local graph (Section 4.2). `degree(v)` is v's degree;
/// `for_each_neighbor(v, f)` calls f(w) for every neighbour w of v, in
/// ascending order. Returns the degeneracy and leaves the order and the core
/// numbers in `s`.
///
/// Vertices sit in `verts` sorted ascending by current degree (ties by id),
/// partitioned into per-degree blocks whose left boundaries are `bin[d]`.
/// The sweep processes `verts` left to right; decrementing a neighbour moves
/// it to the front of its block (one swap) and advances that block boundary.
/// The guard `deg[w] > deg[v]` simultaneously skips processed vertices and
/// clamps degrees at the current peel level, which makes removal degrees
/// non-decreasing — so the degree at removal *is* the core number, and the
/// maximum is the degeneracy.
template <typename Degree, typename ForEachNeighbor>
node_t degeneracy_sweep(node_t n, Degree&& degree, ForEachNeighbor&& for_each_neighbor,
                        DegeneracySweep& s) {
  auto& deg = s.deg;
  auto& bin = s.bin;
  auto& verts = s.verts;
  auto& pos = s.pos;
  deg.resize(n);
  node_t max_deg = 0;
  for (node_t v = 0; v < n; ++v) {
    deg[v] = static_cast<node_t>(degree(v));
    max_deg = std::max(max_deg, deg[v]);
  }

  // Counting sort of vertices by degree: bin[d] becomes the end of block d
  // while placing, then shifts to its start.
  bin.assign(static_cast<std::size_t>(max_deg) + 2, 0);
  for (node_t v = 0; v < n; ++v) bin[deg[v] + 1]++;
  for (node_t d = 0; d <= max_deg; ++d) bin[d + 1] += bin[d];
  verts.resize(n);
  pos.resize(n);
  for (node_t v = 0; v < n; ++v) {
    const node_t p = bin[deg[v]]++;
    verts[p] = v;
    pos[v] = p;
  }
  for (node_t d = max_deg + 1; d > 0; --d) bin[d] = bin[d - 1];
  bin[0] = 0;

  s.order.resize(n);
  node_t degeneracy = 0;
  for (node_t i = 0; i < n; ++i) {
    const node_t v = verts[i];
    s.order[i] = v;
    degeneracy = std::max(degeneracy, deg[v]);
    for_each_neighbor(v, [&](node_t w) {
      if (deg[w] <= deg[v]) return;
      const node_t dw = deg[w];
      const node_t pw = pos[w];
      const node_t pt = bin[dw];  // front of w's block
      const node_t t = verts[pt];
      if (w != t) {
        std::swap(verts[pw], verts[pt]);
        pos[w] = pt;
        pos[t] = pw;
      }
      ++bin[dw];
      --deg[w];
    });
  }
  return degeneracy;
}

}  // namespace c3
