#include "order/degeneracy.hpp"

#include <utility>

namespace c3 {

DegeneracyResult degeneracy_order(const Graph& g) {
  DegeneracySweep s;
  DegeneracyResult result;
  result.degeneracy = degeneracy_sweep(
      g.num_nodes(), [&](node_t v) { return g.degree(v); },
      [&](node_t v, auto&& f) {
        for (const node_t w : g.neighbors(v)) f(w);
      },
      s);
  result.order = std::move(s.order);
  result.core = std::move(s.deg);
  return result;
}

}  // namespace c3
