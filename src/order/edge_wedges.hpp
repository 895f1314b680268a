// Per-edge triangle enumeration shared by the community-degeneracy orders.
#pragma once

#include <cstddef>

#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace c3::detail {

/// Merges the (sorted) neighborhoods of u and v, invoking
/// f(w, edge_uw, edge_vw) for each common neighbor w in ascending order.
/// O(d(u) + d(v)).
template <typename F>
void for_each_wedge(const Graph& g, node_t u, node_t v, F&& f) {
  const auto nu = g.neighbors(u);
  const auto nv = g.neighbors(v);
  const auto idu = g.edge_ids(u);
  const auto idv = g.edge_ids(v);
  std::size_t a = 0, b = 0;
  while (a < nu.size() && b < nv.size()) {
    if (nu[a] < nv[b]) {
      ++a;
    } else if (nu[a] > nv[b]) {
      ++b;
    } else {
      f(nu[a], idu[a], idv[b]);
      ++a;
      ++b;
    }
  }
}

}  // namespace c3::detail
