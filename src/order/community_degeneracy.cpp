#include "order/community_degeneracy.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "order/edge_wedges.hpp"
#include "parallel/parallel.hpp"
#include "parallel/scan.hpp"

namespace c3 {
namespace {

using detail::for_each_wedge;

/// Initial per-edge triangle counts |C_G(e)|. O(sum over edges of d(u)+d(v)).
std::vector<node_t> edge_triangle_counts(const Graph& g) {
  const auto endpoints = g.endpoints();
  std::vector<node_t> count(endpoints.size(), 0);
  parallel_for(
      0, endpoints.size(),
      [&](std::size_t e) {
        node_t c = 0;
        for_each_wedge(g, endpoints[e].u, endpoints[e].v, [&](node_t, edge_t, edge_t) { ++c; });
        count[e] = c;
      },
      64);
  return count;
}

}  // namespace

// Edge analogue of the Batagelj-Zaversnik sweep: edges sit in bins by their
// current triangle count; processing an edge enumerates its remaining
// triangles and decrements the two partner edges (with the clamping guard
// cnt[f] > cnt[e], which keeps processing counts non-decreasing — so the
// maximum processing count is exactly the community degeneracy, the same
// argument as for k-truss decomposition).
EdgeOrderResult community_degeneracy_order(const Graph& g) {
  const edge_t m = g.num_edges();
  const auto endpoints = g.endpoints();
  EdgeOrderResult result;
  result.order.reserve(m);
  result.pos.assign(m, static_cast<edge_t>(-1));
  result.candidate_offsets.assign(m + 1, 0);
  if (m == 0) {
    result.rounds = 0;
    return result;
  }
  result.rounds = static_cast<node_t>(m);  // one edge per "round": linear depth

  std::vector<node_t> cnt = edge_triangle_counts(g);
  const node_t max_cnt = *std::max_element(cnt.begin(), cnt.end());

  // Counting sort of edges by triangle count.
  std::vector<edge_t> bin(static_cast<std::size_t>(max_cnt) + 2, 0);
  for (edge_t e = 0; e < m; ++e) bin[cnt[e] + 1]++;
  for (std::size_t d = 0; d + 1 < bin.size(); ++d) bin[d + 1] += bin[d];
  std::vector<edge_t> edges_sorted(m), epos(m);
  {
    std::vector<edge_t> cursor(bin.begin(), bin.end() - 1);
    for (edge_t e = 0; e < m; ++e) {
      const edge_t p = cursor[cnt[e]]++;
      edges_sorted[p] = e;
      epos[e] = p;
    }
  }

  std::vector<bool> processed(m, false);
  // The sweep records only |V'(e)|, in the offsets' slot e + 1; the members
  // are filled once the order is final (see below).
  edge_t* const offsets = result.candidate_offsets.data();
  node_t sigma = 0;

  for (edge_t i = 0; i < m; ++i) {
    const edge_t e = edges_sorted[i];
    result.order.push_back(e);
    result.pos[e] = i;
    processed[e] = true;
    sigma = std::max(sigma, cnt[e]);

    // Enumerate remaining triangles of e: common neighbors w with both
    // partner edges unprocessed.
    for_each_wedge(g, endpoints[e].u, endpoints[e].v, [&](node_t, edge_t f, edge_t h) {
      if (processed[f] || processed[h]) return;
      ++offsets[e + 1];
      // Decrement with the clamping guard (see header comment).
      for (const edge_t partner : {f, h}) {
        if (cnt[partner] > cnt[e]) {
          const node_t dp = cnt[partner];
          const edge_t pp = epos[partner];
          const edge_t pt = bin[dp];
          const edge_t t = edges_sorted[pt];
          if (partner != t) {
            std::swap(edges_sorted[pp], edges_sorted[pt]);
            epos[partner] = pt;
            epos[t] = pp;
          }
          ++bin[dp];
          --cnt[partner];
        }
      }
    });
  }
  result.sigma = sigma;

  // A partner was unprocessed when e was swept exactly when it comes after e
  // in the final order, so V'(e) = {w : pos(u,w) > pos(e) and pos(v,w) >
  // pos(e)}: one parallel merge per edge writes the CSR in place, in
  // ascending w, without staging (edge, member) pairs.
  (void)inclusive_scan<edge_t>(std::span<const edge_t>(offsets + 1, m),
                               std::span<edge_t>(offsets + 1, m));
  result.candidate_members.resize(offsets[m]);
  node_t* const members = result.candidate_members.data();
  const edge_t* const pos = result.pos.data();
  parallel_for_dynamic(
      0, m,
      [&](std::size_t e) {
        if (offsets[e + 1] == offsets[e]) return;
        edge_t at = offsets[e];
        for_each_wedge(g, endpoints[e].u, endpoints[e].v, [&](node_t w, edge_t f, edge_t h) {
          if (pos[f] > pos[e] && pos[h] > pos[e]) members[at++] = w;
        });
      },
      64);
  return result;
}

node_t community_degeneracy(const Graph& g) { return community_degeneracy_order(g).sigma; }

}  // namespace c3
