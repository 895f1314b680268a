// Protein-complex discovery in a gene-association network — the
// bioinformatics application from the paper's introduction (cliques as
// functional modules / complexes).
//
// Builds a Bio-SC-HT-like functional association network with embedded
// complexes, then: (1) counts the cliques of every size (the clique
// spectrum, one pivot pass), (2) ranks vertices by k-clique participation,
// (3) verifies the top-ranked group really is a module via the exact
// k-clique count inside it.
//
//   ./protein_modules [--n 2500] [--seed 7]
#include <algorithm>
#include <cstdio>

#include "c3list.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  const c3::CommandLine cli(argc, argv);
  const auto n = static_cast<c3::node_t>(cli.get_int("n", 2500));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));

  std::printf("== protein_modules: clique-based module discovery ==\n");
  const c3::Graph g = c3::bio_like(n, 8'000, /*modules=*/40, /*module_size=*/22,
                                   /*module_density=*/0.6, seed);
  std::printf("network: %u genes, %llu associations\n\n", g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()));

  // 1. Cliques of every size (candidate complexes).
  c3::WallTimer t_spectrum;
  const c3::CliqueSpectrum spectrum = c3::clique_spectrum(g);
  std::printf("clique spectrum in %.3f s: clique number %u; counts (size >= 5):\n",
              t_spectrum.seconds(), spectrum.omega);
  for (std::size_t size = 5; size < spectrum.counts.size(); ++size) {
    std::printf("  size %2zu: %llu\n", size,
                static_cast<unsigned long long>(spectrum.counts[size]));
  }

  // 2. Rank genes by 5-clique participation (module centrality).
  const int k = 5;
  const auto participation = c3::per_vertex_clique_counts(g, k);
  std::vector<c3::node_t> ranked(g.num_nodes());
  for (c3::node_t v = 0; v < g.num_nodes(); ++v) ranked[v] = v;
  std::sort(ranked.begin(), ranked.end(),
            [&](c3::node_t a, c3::node_t b) { return participation[a] > participation[b]; });
  std::printf("\ntop genes by %d-clique participation:\n", k);
  for (int i = 0; i < 5; ++i) {
    std::printf("  gene %5u: %llu cliques\n", ranked[static_cast<std::size_t>(i)],
                static_cast<unsigned long long>(participation[ranked[static_cast<std::size_t>(i)]]));
  }

  // 3. Extract the densest 5-clique module and validate it.
  const c3::DensestResult module = c3::kclique_densest_peeling(g, k);
  std::printf("\ndensest %d-clique module: %zu genes, density %.2f\n", k,
              module.vertices.size(), module.density);
  if (!module.vertices.empty()) {
    const c3::InducedSubgraph sub = c3::induced_subgraph(g, module.vertices);
    const auto inside = c3::count_cliques(sub.graph, k);
    std::printf("  verified: %llu %d-cliques inside the module\n",
                static_cast<unsigned long long>(inside.count), k);
    const c3::node_t omega = c3::max_clique_size(sub.graph);
    std::printf("  largest complex inside: %u genes\n", omega);
  }
  return 0;
}
