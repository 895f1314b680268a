// End-to-end pipeline: generate -> serialize -> reload -> analyze -> count,
// exactly as a downstream user would drive the library.
#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "c3list.hpp"

namespace c3 {
namespace {

TEST(Pipeline, GenerateSerializeAnalyzeCount) {
  // Per-process directory, so concurrent ctest processes never share it.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("c3list_pipeline_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  const Graph g = social_like(300, 2100, 0.4, 2026);
  write_edge_list(dir / "g.txt", g);
  write_graph_binary(dir / "g.bin", g);

  const Graph from_text = read_graph(dir / "g.txt");
  const Graph from_bin = read_graph_binary(dir / "g.bin");

  const GraphStats stats = compute_stats(g);
  EXPECT_EQ(stats.nodes, 300u);
  EXPECT_GT(stats.triangles, 0u);
  EXPECT_GT(stats.degeneracy, 2u);

  for (int k = 3; k <= 5; ++k) {
    const count_t direct = count_cliques(g, k).count;
    EXPECT_EQ(count_cliques(from_text, k).count, direct) << "text round trip, k=" << k;
    EXPECT_EQ(count_cliques(from_bin, k).count, direct) << "binary round trip, k=" << k;
  }

  std::filesystem::remove_all(dir);
}

TEST(Pipeline, FullAnalysisChain) {
  const Graph g = planted_clique(250, 600, 10, 31, nullptr);

  // Clique number via the search API and via the pivot spectrum agree.
  const node_t omega = max_clique_size(g);
  const CliqueSpectrum spectrum = clique_spectrum(g);
  EXPECT_EQ(omega, spectrum.omega);
  EXPECT_EQ(omega, 10u);

  // The densest 4-clique subgraph has at least the planted core's density
  // over the approximation factor.
  const DensestResult densest = kclique_densest_peeling(g, 4);
  EXPECT_GT(densest.density, 0.0);

  // The spectrum's count of maximum cliques matches the per-k search.
  EXPECT_EQ(spectrum.counts[omega], count_cliques(g, static_cast<int>(omega)).count);
}

TEST(Pipeline, CommunityDegeneracySigmaGuidesAlgorithmChoice) {
  // On a sigma << s graph, Algorithm 3's candidate sets (bounded by sigma)
  // are far smaller than the communities under the degeneracy orientation.
  const Graph g = bipartite_plus_line(24);
  const node_t s = degeneracy_order(g).degeneracy;
  const node_t sigma = community_degeneracy(g);
  EXPECT_LT(sigma + 5, s);

  const CliqueResult r_c3 = count_cliques(g, 3);

  // Theorem 4.3: under the exact order every candidate set is at most sigma.
  CliqueOptions cd;
  cd.algorithm = Algorithm::C3ListCD;
  cd.edge_order = EdgeOrderKind::ExactCommunityDegeneracy;
  const CliqueResult r_cd = count_cliques(g, 3, cd);
  EXPECT_EQ(r_cd.count, r_c3.count);
  EXPECT_LE(r_cd.stats.gamma, sigma);

  // Lemma 4.4: under the default order (Algorithm 4) every candidate set is
  // at most (3 + eps) sigma.
  CliqueOptions cd_default;
  cd_default.algorithm = Algorithm::C3ListCD;
  ASSERT_EQ(cd_default.edge_order, EdgeOrderKind::ApproxCommunityDegeneracy);
  const CliqueResult r_default = count_cliques(g, 3, cd_default);
  EXPECT_EQ(r_default.count, r_c3.count);
  EXPECT_LE(static_cast<double>(r_default.stats.gamma),
            (3.0 + cd_default.eps) * static_cast<double>(sigma));
}

}  // namespace
}  // namespace c3
