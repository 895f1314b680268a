#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "bench.hpp"

namespace perfbench {
namespace {

using c3::Edge;
using c3::EdgeList;
using c3::node_t;

EdgeInput from_graph(std::string name, const c3::Graph& g) {
  return {std::move(name), g.num_nodes(), EdgeList(g.endpoints().begin(), g.endpoints().end())};
}

/// Size of clique i of `count` on the fixed schedule: the power-law
/// min + (max - min) * u^power at the midpoint quantile u of slot i.
node_t scheduled_size(std::size_t i, std::size_t count, node_t min_size, node_t max_size,
                      double power) {
  const double u = (static_cast<double>(i) + 0.5) / static_cast<double>(count);
  return static_cast<node_t>(std::lround(static_cast<double>(min_size) +
                                         (static_cast<double>(max_size - min_size)) *
                                             std::pow(u, power)));
}

/// `size` distinct vertices drawn by `pick`; repeats are drawn again.
template <typename Pick>
std::vector<node_t> distinct_members(node_t size, Pick&& pick) {
  std::vector<node_t> members;
  std::unordered_set<node_t> seen;
  while (members.size() < size) {
    const node_t v = pick();
    if (seen.insert(v).second) members.push_back(v);
  }
  return members;
}

void add_clique(EdgeList& edges, const std::vector<node_t>& members) {
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      edges.push_back(Edge{members[i], members[j]});
    }
  }
}

/// Overlays `count` cliques with scheduled sizes in [min_size, max_size]
/// (cubic power law, as bench/datasets.hpp) on random distinct vertices.
void overlay(EdgeInput& in, std::size_t count, node_t min_size, node_t max_size,
             std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t c = 0; c < count; ++c) {
    const node_t size = scheduled_size(c, count, min_size, max_size, 3.0);
    add_clique(in.edges,
               distinct_members(size, [&] { return static_cast<node_t>(rng.below(in.n)); }));
  }
}

}  // namespace

EdgeInput orkut_like(std::uint64_t seed, bool tiny) {
  const double scale = tiny ? 0.1 : 1.0;
  EdgeInput in = from_graph(
      "orkut_like", c3::social_like(static_cast<node_t>(14'000 * scale),
                                    static_cast<c3::edge_t>(220'000 * scale), 0.5,
                                    derive_seed(seed, "orkut_like.base")));
  overlay(in, static_cast<std::size_t>(1'800 * scale), 5, 21,
          derive_seed(seed, "orkut_like.overlay"));
  return in;
}

EdgeInput dblp_like(std::uint64_t seed, bool tiny) {
  // collaboration_like's recipe (teams of power-law size, 35% of members
  // re-drawn from earlier authors) with the team sizes on a fixed schedule.
  const double scale = tiny ? 0.1 : 1.0;
  EdgeInput in{"dblp_like", static_cast<node_t>(26'000 * scale), {}};
  const auto papers = static_cast<std::size_t>(14'000 * scale);
  std::vector<node_t> sizes(papers);
  for (std::size_t p = 0; p < papers; ++p) sizes[p] = scheduled_size(p, papers, 2, 20, 4.0);
  Rng rng(derive_seed(seed, "dblp_like.teams"));
  for (std::size_t p = papers; p > 1; --p) std::swap(sizes[p - 1], sizes[rng.below(p)]);
  std::vector<node_t> author_log;
  for (const node_t team : sizes) {
    const std::vector<node_t> members = distinct_members(team, [&] {
      if (!author_log.empty() && rng.unit() < 0.35) return author_log[rng.below(author_log.size())];
      return static_cast<node_t>(rng.below(in.n));
    });
    author_log.insert(author_log.end(), members.begin(), members.end());
    add_clique(in.edges, members);
  }
  return in;
}

EdgeInput skitter_like(std::uint64_t seed, bool tiny) {
  const double scale = tiny ? 0.1 : 1.0;
  EdgeInput in = from_graph(
      "skitter_like", c3::topology_like(static_cast<node_t>(26'000 * scale), 4, 0.9,
                                        derive_seed(seed, "skitter_like.base")));
  overlay(in, static_cast<std::size_t>(900 * scale), 6, 21,
          derive_seed(seed, "skitter_like.overlay"));
  return in;
}

EdgeInput dense_blocks(std::uint64_t seed, bool tiny) {
  // Two disjoint community cliques of 300 and 320 vertices: rows of 5
  // words, past the 4-word inline threshold, so searches dispatch to the
  // SIMD kernels. (bench_kernels draws 420-460 members with repeats into
  // overlapping cliques; fixed sizes keep the cost the same for every seed.)
  // The tiny variant's 150-vertex cliques stay inline.
  const node_t n = tiny ? 500 : 1200;
  EdgeInput in = from_graph(
      "dense_blocks",
      c3::social_like(n, tiny ? 2'000 : 6'000, 0.4, derive_seed(seed, "dense_blocks.base")));
  std::vector<node_t> perm(n);
  for (node_t v = 0; v < n; ++v) perm[v] = v;
  Rng rng(derive_seed(seed, "dense_blocks.overlay"));
  for (node_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.below(i)]);
  const node_t a = tiny ? 150 : 300;
  const node_t b = tiny ? 150 : 320;
  add_clique(in.edges, std::vector<node_t>(perm.begin(), perm.begin() + a));
  add_clique(in.edges, std::vector<node_t>(perm.begin() + a, perm.begin() + a + b));
  return in;
}

EdgeInput turan(node_t n, node_t r) { return from_graph("turan", c3::turan_graph(n, r)); }

}  // namespace perfbench
