// Direct tests of the Algorithm 2 engine on hand-built local subgraphs.
#include "clique/recursive.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "clique/combinatorics.hpp"
#include "graph/builder.hpp"
#include "graph/digraph.hpp"
#include "util/bitkernels.hpp"

namespace c3 {
namespace {

struct EngineFixture {
  LocalGraph lg;
  SearchContext ctx;
  LocalCounters ctr;

  explicit EngineFixture(int n) {
    lg.reset(n);
    ctx.lg = &lg;
    ctx.ctr = &ctr;
    ctx.prune = true;
  }

  count_t count_all(int c) { return search_cliques_all(ctx, c); }
  count_t count_vertex_all(int c) { return search_cliques_vertex_all(ctx, c); }
};

/// Restores the active kernel backend on scope exit.
struct BackendGuard {
  bits::KernelBackend saved = bits::active_kernel_backend();
  ~BackendGuard() { bits::set_kernel_backend(saved); }
};

TEST(RecursiveEngine, BaseCaseCountsCandidates) {
  EngineFixture f(5);  // no edges
  EXPECT_EQ(f.count_all(1), 5u);
}

TEST(RecursiveEngine, BaseCaseCountsEdges) {
  EngineFixture f(4);
  f.lg.add_edge(0, 1);
  f.lg.add_edge(2, 3);
  f.lg.add_edge(0, 3);
  EXPECT_EQ(f.count_all(2), 3u);
}

TEST(RecursiveEngine, CompleteLocalGraphClosedForms) {
  const int n = 10;
  for (int c = 1; c <= n; ++c) {
    EngineFixture f(n);
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) f.lg.add_edge(a, b);
    }
    EXPECT_EQ(f.count_all(c), binomial(n, c)) << "c=" << c;
  }
}

TEST(RecursiveEngine, PathHasNoTriangles) {
  EngineFixture f(6);
  for (int a = 0; a + 1 < 6; ++a) f.lg.add_edge(a, a + 1);
  EXPECT_EQ(f.count_all(3), 0u);
  EXPECT_EQ(f.count_all(2), 5u);
}

TEST(RecursiveEngine, CrossesWordBoundary) {
  // A complete local graph on 70 vertices exercises the 2-word bitset path.
  const int n = 70;
  EngineFixture f(n);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) f.lg.add_edge(a, b);
  }
  EXPECT_EQ(f.count_all(3), binomial(70, 3));
  EXPECT_EQ(f.count_all(4), binomial(70, 4));
}

TEST(RecursiveEngine, IntervalRestrictionPreventsDoubleCounting) {
  // Two triangles sharing an edge: {0,1,2} and {0,2,3} (edges 01 02 12 23 03).
  // A 3-clique search must count each exactly once even though vertex 0 and
  // 2 are common neighbors of several pairs.
  EngineFixture f(4);
  f.lg.add_edge(0, 1);
  f.lg.add_edge(0, 2);
  f.lg.add_edge(1, 2);
  f.lg.add_edge(2, 3);
  f.lg.add_edge(0, 3);
  EXPECT_EQ(f.count_all(3), 2u);
}

TEST(RecursiveEngine, CountersTrackProbes) {
  EngineFixture f(8);
  for (int a = 0; a < 8; ++a) {
    for (int b = a + 1; b < 8; ++b) f.lg.add_edge(a, b);
  }
  (void)f.count_all(4);
  EXPECT_GT(f.ctr.pairs_probed, 0u);
  EXPECT_GT(f.ctr.edges_matched, 0u);
  EXPECT_GE(f.ctr.pairs_probed, f.ctr.edges_matched);
  EXPECT_GT(f.ctr.recursive_calls, 0u);
}

TEST(RecursiveEngine, PruneFlagOnlyChangesWork) {
  for (const bool prune : {true, false}) {
    EngineFixture f(12);
    for (int a = 0; a < 12; ++a) {
      for (int b = a + 1; b < 12; ++b) f.lg.add_edge(a, b);
    }
    f.ctx.prune = prune;
    EXPECT_EQ(f.count_all(6), binomial(12, 6)) << "prune=" << prune;
  }
}

TEST(RecursiveEngine, VertexGrowthMatchesEdgeGrowth) {
  // The vertex-at-a-time recursion (ArbCount / kcList dense path) must agree
  // with the edge-growth recursion on random local graphs, across word
  // boundaries and clique sizes.
  std::mt19937 rng(7);
  for (const int n : {6, 40, 70, 130}) {
    EngineFixture f(n);
    std::bernoulli_distribution edge(0.35);
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        if (edge(rng)) f.lg.add_edge(a, b);
      }
    }
    for (int c = 1; c <= 5; ++c) {
      EXPECT_EQ(f.count_vertex_all(c), f.count_all(c)) << "n=" << n << " c=" << c;
    }
  }
}

TEST(RecursiveEngine, VertexGrowthCompleteGraphClosedForms) {
  const int n = 70;  // crosses the word boundary
  EngineFixture f(n);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) f.lg.add_edge(a, b);
  }
  for (int c = 1; c <= 6; ++c) {
    EXPECT_EQ(f.count_vertex_all(c), binomial(n, c)) << "c=" << c;
  }
}

TEST(RecursiveEngine, VertexGrowthListsCliques) {
  EngineFixture f(4);
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) f.lg.add_edge(a, b);
  }
  const node_t to_orig[] = {100, 101, 102, 103};
  std::vector<std::vector<node_t>> reported;
  const CliqueCallback cb = [&](std::span<const node_t> clique) {
    reported.emplace_back(clique.begin(), clique.end());
    return true;
  };
  f.ctx.callback = &cb;
  f.ctx.member_to_orig = to_orig;
  EXPECT_EQ(f.count_vertex_all(3), 4u);
  ASSERT_EQ(reported.size(), 4u);
  for (const auto& c : reported) ASSERT_EQ(c.size(), 3u);
}

TEST(RecursiveEngine, ScalarBackendMatchesHostDefault) {
  // Same graph, same counts, with the dispatch pinned to scalar vs whatever
  // the host selected — the substrate must be invisible to results.
  std::mt19937 rng(11);
  EngineFixture f(150);  // wide enough for padded (8-word) rows
  std::bernoulli_distribution edge(0.3);
  for (int a = 0; a < 150; ++a) {
    for (int b = a + 1; b < 150; ++b) {
      if (edge(rng)) f.lg.add_edge(a, b);
    }
  }
  const BackendGuard guard;
  std::vector<count_t> host, scalar;
  for (int c = 2; c <= 5; ++c) {
    host.push_back(f.count_all(c));
    host.push_back(f.count_vertex_all(c));
  }
  ASSERT_TRUE(bits::set_kernel_backend(bits::KernelBackend::Scalar));
  for (int c = 2; c <= 5; ++c) {
    scalar.push_back(f.count_all(c));
    scalar.push_back(f.count_vertex_all(c));
  }
  EXPECT_EQ(host, scalar);
}

TEST(RecursiveEngine, LocalGraphResetClearsLazily) {
  LocalGraph lg;
  lg.reset(200);
  EXPECT_EQ(lg.dirty_rows(), 0);
  lg.add_edge(3, 150);
  lg.add_edge(3, 7);
  EXPECT_EQ(lg.dirty_rows(), 3);  // rows 3, 150, 7
  EXPECT_TRUE(lg.has_edge(150, 3));

  // Shrinking reset: previously-populated rows must read empty again even
  // though only the dirty ones were cleared.
  lg.reset(160);
  EXPECT_EQ(lg.dirty_rows(), 0);
  for (int a = 0; a < 160; ++a) ASSERT_EQ(lg.degree(a), 0) << "a=" << a;
  EXPECT_FALSE(lg.has_edge(3, 7));

  // Re-population under the new (smaller) universe behaves normally.
  lg.add_edge(0, 159);
  EXPECT_TRUE(lg.has_edge(159, 0));
  EXPECT_EQ(lg.degree(0), 1);

  // Growing reset after use: the new rows are zero too.
  lg.reset(500);
  for (int a = 0; a < 500; ++a) ASSERT_EQ(lg.degree(a), 0) << "a=" << a;
}

TEST(RecursiveEngine, LocalGraphStrideFollowsKernelContract) {
  LocalGraph lg;
  lg.reset(64);
  EXPECT_EQ(lg.words(), 1);  // narrow rows stay exact
  lg.reset(256);
  EXPECT_EQ(lg.words(), 4);
  lg.reset(257);
  EXPECT_EQ(lg.words(), 8);  // wide rows pad to the 512-bit width
}

TEST(RecursiveEngine, DenseSubproblemThresholdRoundTrip) {
  const int saved = dense_subproblem_min_vertices();
  set_dense_subproblem_min_vertices(1);
  EXPECT_TRUE(use_dense_subproblem(2, 4));        // tiny but dense
  EXPECT_FALSE(use_dense_subproblem(100, 100));   // big but sparse
  set_dense_subproblem_min_vertices(1000);
  EXPECT_FALSE(use_dense_subproblem(100, 10000));  // dense but below the floor
  set_dense_subproblem_min_vertices(saved);
}

TEST(RecursiveEngine, ListingReportsChosenVertices) {
  EngineFixture f(4);
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) f.lg.add_edge(a, b);
  }
  const node_t to_orig[] = {100, 101, 102, 103};
  std::vector<std::vector<node_t>> reported;
  const CliqueCallback cb = [&](std::span<const node_t> clique) {
    std::vector<node_t> sorted(clique.begin(), clique.end());
    std::sort(sorted.begin(), sorted.end());
    reported.push_back(sorted);
    return true;
  };
  f.ctx.callback = &cb;
  f.ctx.member_to_orig = to_orig;
  EXPECT_EQ(f.count_all(3), 4u);
  ASSERT_EQ(reported.size(), 4u);
  for (const auto& c : reported) {
    ASSERT_EQ(c.size(), 3u);
    for (const node_t v : c) {
      ASSERT_GE(v, 100u);
      ASSERT_LE(v, 103u);
    }
  }
}

TEST(RecursiveEngine, BuildLocalGraphMatchesTwoPointerReference) {
  // A random DAG (oriented by vertex id) and random sorted member sets: the
  // map-based build must give the rows and arc-id slots a sorted two-pointer
  // merge of each member's out-list against the member list gives, and
  // leave the shared vertex map at -1 everywhere after every call.
  std::mt19937 rng(23);
  const node_t n = 300;
  EdgeList edges;
  std::bernoulli_distribution edge(0.2);
  for (node_t a = 0; a < n; ++a) {
    for (node_t b = a + 1; b < n; ++b) {
      if (edge(rng)) edges.push_back({a, b});
    }
  }
  const Graph g = build_graph(edges, n);
  std::vector<node_t> order(n);
  for (node_t v = 0; v < n; ++v) order[v] = v;
  const Digraph dag = Digraph::orient(g, order);

  LocalGraph lg;
  std::vector<int> local_id;
  std::vector<edge_t> slots, ref_slots;
  std::bernoulli_distribution keep(0.4);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<node_t> members;
    for (node_t v = 0; v < n; ++v) {
      if (keep(rng) && trial % 4 != 0) members.push_back(v);
    }
    if (trial % 4 == 0) {  // small sets, down to a single vertex
      for (node_t v = static_cast<node_t>(trial); v < n; v += 37) members.push_back(v);
    }
    const std::size_t size = members.size();
    slots.assign(size * size, static_cast<edge_t>(-1));
    ref_slots.assign(size * size, static_cast<edge_t>(-1));
    build_local_graph(dag, members, lg, local_id, slots.data());

    LocalGraph ref;
    ref.reset(static_cast<int>(size));
    for (std::size_t a = 0; a < size; ++a) {
      const auto out = dag.out_neighbors(members[a]);
      std::size_t i = 0, j = a + 1;
      while (i < out.size() && j < size) {
        if (out[i] < members[j]) {
          ++i;
        } else if (out[i] > members[j]) {
          ++j;
        } else {
          ref.add_edge(static_cast<int>(a), static_cast<int>(j));
          const edge_t arc = dag.raw_out_offsets()[members[a]] + i;
          ref_slots[a * size + j] = arc;
          ref_slots[j * size + a] = arc;
          ++i;
          ++j;
        }
      }
    }

    ASSERT_EQ(lg.size(), ref.size()) << "trial " << trial;
    ASSERT_EQ(lg.words(), ref.words()) << "trial " << trial;
    for (int a = 0; a < lg.size(); ++a) {
      ASSERT_TRUE(std::equal(lg.row(a), lg.row(a) + lg.words(), ref.row(a)))
          << "trial " << trial << " row " << a;
    }
    ASSERT_EQ(slots, ref_slots) << "trial " << trial;
    ASSERT_GE(local_id.size(), static_cast<std::size_t>(n));
    ASSERT_TRUE(std::all_of(local_id.begin(), local_id.end(), [](int x) { return x == -1; }))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace c3
