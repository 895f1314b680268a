#include "order/community_degeneracy.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include "order/edge_wedges.hpp"
#include "parallel/pack.hpp"
#include "parallel/padded.hpp"
#include "parallel/parallel.hpp"
#include "parallel/reduce.hpp"
#include "parallel/scan.hpp"

namespace c3 {

using detail::for_each_wedge;

// Algorithm 4 of the paper: per round, select all edges supporting at most
// (3 + eps) * T / m triangles (T, m of the *remaining* graph), append them to
// the order (tie-broken by edge id), remove them, and update the partner
// edges' counts. Observation 6 bounds the rounds by O(log_{1+eps} m);
// Lemma 4.4 bounds every candidate set by (3 + eps) * sigma.
//
// Each triangle lands in exactly one candidate set, so the members of all
// rounds fit one staging array of T slots: a peeled edge gathers V'(e) in
// its worker's scratch and reserves its slots with one atomic add. The
// staging layout depends on the schedule; the CSR built from it does not.
EdgeOrderResult approx_community_degeneracy_order(const Graph& g, double eps) {
  if (eps <= 0.0)
    throw std::invalid_argument("approx_community_degeneracy_order: eps must be positive");
  const edge_t m = g.num_edges();
  const auto endpoints = g.endpoints();
  EdgeOrderResult result;
  result.order.resize(m);
  result.pos.assign(m, static_cast<edge_t>(-1));
  result.candidate_offsets.assign(m + 1, 0);
  if (m == 0) return result;

  // Step 1-2 of Algorithm 4: per-edge triangle counts.
  std::vector<std::atomic<node_t>> cnt(m);
  parallel_for(
      0, m,
      [&](std::size_t e) {
        node_t c = 0;
        for_each_wedge(g, endpoints[e].u, endpoints[e].v,
                       [&](node_t, edge_t, edge_t) { ++c; });
        cnt[e].store(c, std::memory_order_relaxed);
      },
      64);
  count_t triangles_remaining = parallel_sum<count_t>(0, m, [&](std::size_t e) {
                                  return cnt[e].load(std::memory_order_relaxed);
                                }) /
                                3;
  const node_t max_count = parallel_max<node_t>(
      0, m, 0, [&](std::size_t e) { return cnt[e].load(std::memory_order_relaxed); });

  std::vector<edge_t> alive(m);
  for (edge_t e = 0; e < m; ++e) alive[e] = e;

  // V'(e) is a subset of e's remaining triangles, so max_count bounds it.
  PerWorker<std::vector<node_t>> scratch{std::vector<node_t>(max_count)};
  std::vector<node_t> staging(triangles_remaining);
  std::vector<edge_t> staged_at(m);
  std::atomic<edge_t> staged{0};
  edge_t* const order = result.order.data();
  edge_t* const pos = result.pos.data();
  edge_t base = 0;

  while (!alive.empty()) {
    ++result.rounds;
    const double avg = 3.0 * static_cast<double>(triangles_remaining) /
                       static_cast<double>(alive.size());
    const auto threshold = static_cast<node_t>((1.0 + eps / 3.0) * avg);
    // (3 + eps) * T / m == (1 + eps/3) * (3T/m); written via the per-edge
    // average 3T/m so the zero-triangle round peels everything at once.

    std::vector<edge_t> peeled = pack_if<edge_t>(alive, [&](std::size_t i) {
      return cnt[alive[i]].load(std::memory_order_relaxed) <= threshold;
    });
    std::vector<edge_t> survivors = pack_if<edge_t>(alive, [&](std::size_t i) {
      return cnt[alive[i]].load(std::memory_order_relaxed) > threshold;
    });

    // Final order positions: earlier rounds first, ties by edge id (peeled
    // is id-sorted because pack preserves the order of `alive`).
    parallel_for(0, peeled.size(), [&](std::size_t i) {
      pos[peeled[i]] = base + i;
      order[base + i] = peeled[i];
    });

    // For each peeled edge e, enumerate the triangles that are still alive
    // at round start and in which e is the lowest-positioned edge. That
    // triangle is recorded in V'(e), and each *surviving* partner edge
    // loses one triangle. A peeled edge's count is dead from here on, so it
    // is overwritten with |V'(e)|.
    const edge_t staged_before = staged.load(std::memory_order_relaxed);
    parallel_for_dynamic(0, peeled.size(), [&](std::size_t i) {
      const edge_t e = peeled[i];
      const edge_t epos = base + i;
      node_t* const members = scratch.local().data();
      node_t owned = 0;
      for_each_wedge(g, endpoints[e].u, endpoints[e].v, [&](node_t w, edge_t f, edge_t h) {
        const edge_t fpos = pos[f];
        const edge_t hpos = pos[h];
        // Partner removed in an earlier round: triangle already gone before
        // this round.
        if (fpos < base || hpos < base) return;
        // e must be the first of the triangle's edges in the final order to
        // own it.
        if (fpos != static_cast<edge_t>(-1) && fpos < epos) return;
        if (hpos != static_cast<edge_t>(-1) && hpos < epos) return;
        members[owned++] = w;
        if (fpos == static_cast<edge_t>(-1)) cnt[f].fetch_sub(1, std::memory_order_relaxed);
        if (hpos == static_cast<edge_t>(-1)) cnt[h].fetch_sub(1, std::memory_order_relaxed);
      });
      cnt[e].store(owned, std::memory_order_relaxed);
      if (owned == 0) return;
      const edge_t at = staged.fetch_add(owned, std::memory_order_relaxed);
      staged_at[e] = at;
      std::copy(members, members + owned, staging.begin() + static_cast<std::ptrdiff_t>(at));
    });
    triangles_remaining -= staged.load(std::memory_order_relaxed) - staged_before;
    base += peeled.size();
    alive = std::move(survivors);
  }

  // Offsets by edge id from the recorded sizes, then one copy per edge.
  edge_t* const offsets = result.candidate_offsets.data();
  parallel_for(0, m,
               [&](std::size_t e) { offsets[e + 1] = cnt[e].load(std::memory_order_relaxed); });
  (void)inclusive_scan<edge_t>(std::span<const edge_t>(offsets + 1, m),
                               std::span<edge_t>(offsets + 1, m));
  result.candidate_members.resize(offsets[m]);
  node_t* const out = result.candidate_members.data();
  parallel_for(0, m, [&](std::size_t e) {
    const auto from = staging.begin() + static_cast<std::ptrdiff_t>(staged_at[e]);
    std::copy(from, from + static_cast<std::ptrdiff_t>(offsets[e + 1] - offsets[e]),
              out + offsets[e]);
  });
  result.sigma = parallel_max<node_t>(
      0, m, 0, [&](std::size_t e) { return cnt[e].load(std::memory_order_relaxed); });
  return result;
}

}  // namespace c3
