#include "clique/bruteforce.hpp"

#include <algorithm>
#include <vector>

namespace c3 {
namespace {

struct BruteState {
  const Graph* g;
  const CliqueCallback* callback;
  CliqueTally* tally;
  StopSource* stop;
  std::vector<node_t> stack;
  count_t found = 0;
  unsigned polls = 0;
};

/// Extends the current partial clique (st.stack) with `need` more vertices
/// drawn from `cands` (sorted, all adjacent to everything on the stack and
/// id-above the stack top).
void extend(BruteState& st, const std::vector<node_t>& cands, int need) {
  if (need == 0) {
    ++st.found;
    if (st.callback != nullptr && !(*st.callback)(std::span<const node_t>(st.stack)))
      st.stop->request_stop();
    if (st.tally != nullptr) {
      for (std::size_t i = 0; i < st.stack.size(); ++i) {
        ++st.tally->vertex[st.stack[i]];
        if (st.tally->edge.empty()) continue;
        for (std::size_t j = 0; j < i; ++j)
          ++st.tally->edge[st.g->edge_id(st.stack[j], st.stack[i])];
      }
    }
    return;
  }
  if (static_cast<int>(cands.size()) < need) return;
  std::vector<node_t> next;
  for (std::size_t i = 0; i < cands.size() && !st.stop->poll(st.polls); ++i) {
    const node_t v = cands[i];
    // next = {w in cands, w > v, w adjacent to v}
    next.clear();
    const auto nbrs = st.g->neighbors(v);
    std::set_intersection(cands.begin() + static_cast<std::ptrdiff_t>(i) + 1, cands.end(),
                          nbrs.begin(), nbrs.end(), std::back_inserter(next));
    st.stack.push_back(v);
    extend(st, next, need - 1);
    st.stack.pop_back();
  }
}

}  // namespace

count_t brute_force_search(const Graph& g, int k, const CliqueSink& sink, StopSource& stop) {
  stop.begin_search();
  if (k <= 0) return 0;
  BruteState st;
  st.g = &g;
  st.callback = sink.callback;
  st.tally = sink.tallies != nullptr ? &sink.tallies->per_worker.front() : nullptr;
  st.stop = &stop;
  std::vector<node_t> all(g.num_nodes());
  for (node_t v = 0; v < g.num_nodes(); ++v) all[v] = v;
  extend(st, all, k);
  return st.found;
}

count_t brute_force_count(const Graph& g, int k) {
  StopSource stop;
  return brute_force_search(g, k, CliqueSink{}, stop);
}

count_t brute_force_list(const Graph& g, int k, const CliqueCallback& callback) {
  StopSource stop;
  return brute_force_search(g, k, CliqueSink{&callback, nullptr}, stop);
}

}  // namespace c3
