// Benchmark dataset stand-ins (DESIGN.md Section 5).
//
// One factory per graph of the paper's Table 2, built from the library's
// generators and calibrated on the structural axes the paper reports
// (|E|/|V|, |T|/|V|, |T|/|E|, degeneracy s). Scaled ~50-500x below the real
// datasets so the full k = 6..10 x 3-algorithm sweep finishes on one core;
// `--scale` multiplies the vertex/edge budgets for larger machines.
//
// Real social/collaboration/topology graphs owe their large cliques to
// dense overlapping communities (author teams, forums, exchange points); the
// pure degree-matched skeletons lack those, so the stand-ins overlay
// power-law-sized community cliques — that is what makes k = 10 counting
// non-trivial, exactly as in the originals.
#pragma once

#include <string>
#include <vector>

#include "c3list.hpp"
#include "util/rng.hpp"

namespace c3::bench {

/// Overlays `count` random community cliques (sizes in [min_size, max_size],
/// power-law biased toward small) onto a base graph.
[[nodiscard]] inline Graph overlay_communities(const Graph& base, count_t count, node_t min_size,
                                               node_t max_size, std::uint64_t seed) {
  EdgeList edges(base.endpoints().begin(), base.endpoints().end());
  Xoshiro256 rng(seed);
  const node_t n = base.num_nodes();
  for (count_t c = 0; c < count; ++c) {
    const double x = rng.next_double();
    const auto size = static_cast<node_t>(
        static_cast<double>(min_size) +
        (static_cast<double>(max_size) - static_cast<double>(min_size)) * x * x * x);
    std::vector<node_t> members(size);
    for (auto& v : members) v = static_cast<node_t>(rng.next_below(n));
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        if (members[i] != members[j]) edges.push_back(Edge{members[i], members[j]});
      }
    }
  }
  return build_graph(edges, n);
}

/// The small CI smoke graphs shared by the bench smokes (bench_prepared_sweep,
/// bench_snapshot, bench_server, bench_kernels, bench_obs): one list so their
/// baselines can never drift onto different inputs.
struct SmokeGraph {
  std::string name;
  Graph graph;
};

[[nodiscard]] inline std::vector<SmokeGraph> smoke_graphs() {
  return {
      {"social_like", social_like(3000, 24'000, 0.4, 7)},
      {"erdos_renyi", erdos_renyi(2000, 20'000, 11)},
      {"barabasi_albert", barabasi_albert(3000, 6, 13)},
  };
}

struct Dataset {
  std::string name;        ///< paper dataset this stands in for
  std::string generator;   ///< how the substitute is built
  std::string paper_note;  ///< the paper's Table 2 row (for EXPERIMENTS.md)
  Graph graph;
};

/// Orkut (social network; paper: 3.1M / 117.2M / 627.6M triangles / s=253).
[[nodiscard]] inline Dataset orkut_like(double scale = 1.0) {
  const auto n = static_cast<node_t>(14'000 * scale);
  const auto m = static_cast<edge_t>(220'000 * scale);
  Graph g = social_like(n, m, 0.5, 0x02C0DE01);
  g = overlay_communities(g, static_cast<count_t>(1'800 * scale), 5, 21, 0x02C0DE02);
  return {"Orkut", "social_like + community overlay",
          "paper: |V|=3.1M |E|=117.2M |T|=627.6M s=253 E/V=38.1 T/V=204.6 T/E=5.4",
          std::move(g)};
}

/// Ca-DBLP-2012 (collaboration; paper: 317K / 1M / 2.2M / s=113).
[[nodiscard]] inline Dataset dblp_like(double scale = 1.0) {
  const auto authors = static_cast<node_t>(26'000 * scale);
  const auto papers = static_cast<count_t>(14'000 * scale);
  Graph g = collaboration_like(authors, papers, 20, 0xDB1F01);
  return {"Ca-DBLP-2012", "collaboration_like (union of author-team cliques)",
          "paper: |V|=317K |E|=1M |T|=2.2M s=113 E/V=3.3 T/V=7 T/E=2.1", std::move(g)};
}

/// Tech-As-Skitter (internet topology; paper: 1.7M / 11.1M / 28.8M / s=111).
[[nodiscard]] inline Dataset skitter_like(double scale = 1.0) {
  const auto n = static_cast<node_t>(26'000 * scale);
  Graph g = topology_like(n, 4, 0.9, 0x5C177E01);
  g = overlay_communities(g, static_cast<count_t>(900 * scale), 6, 21, 0x5C177E02);
  return {"Tech-As-Skitter", "topology_like (pref. attachment + closure) + IXP-like cliques",
          "paper: |V|=1.7M |E|=11.1M |T|=28.8M s=111 E/V=6.5 T/V=17 T/E=2.6", std::move(g)};
}

/// Gearbox (FEM mesh; paper: 153.7K / 4.5M / 4.6M / s=44).
[[nodiscard]] inline Dataset gearbox_like(double scale = 1.0) {
  const auto n = static_cast<node_t>(9'000 * scale);
  Graph g = mesh_like(n, 36, 0x6EA2B0);
  return {"Gearbox", "mesh_like (kNN graph of 3D points)",
          "paper: |V|=153.7K |E|=4.5M |T|=4.6M s=44 E/V=29 T/V=30 T/E=1", std::move(g)};
}

/// Chebyshev4 (spectral scheme; paper: 68K / 1.9M / 28.9M / s=68).
[[nodiscard]] inline Dataset chebyshev_like(double scale = 1.0) {
  const auto n = static_cast<node_t>(7'000 * scale);
  Graph g = spectral_like(n, 7, 22, 9, 0xC4EB01);
  return {"Chebyshev4", "spectral_like (banded + overlapping dense windows)",
          "paper: |V|=68K |E|=1.9M |T|=28.9M s=68 E/V=28.9 T/V=424.2 T/E=14.7", std::move(g)};
}

/// Jester2 (joke-rating projection; paper: 50.1K / 1.7M / 35.6M / s=128).
[[nodiscard]] inline Dataset jester_like(double scale = 1.0) {
  const auto users = static_cast<node_t>(2'500 * scale);
  Graph g = rating_projection(users, 150, 6, 0x1E57E2, /*projection_window=*/16);
  return {"Jester2", "rating_projection (bipartite user-item co-rating projection)",
          "paper: |V|=50.1K |E|=1.7M |T|=35.6M s=128 E/V=34.1 T/V=703.3 T/E=20.6",
          std::move(g)};
}

/// Bio-SC-HT (gene associations; paper: 2084 / 63K / 1.4M / s=100).
[[nodiscard]] inline Dataset bio_sc_ht_like(double scale = 1.0) {
  const auto n = static_cast<node_t>(1'700 * scale);
  Graph g = bio_like(n, static_cast<edge_t>(16'000 * scale), static_cast<node_t>(120 * scale), 26,
                     0.92, 0xB105C0);
  return {"Bio-SC-HT", "bio_like (Chung-Lu background + dense functional modules)",
          "paper: |V|=2084 |E|=63K |T|=1.4M s=100 E/V=30.2 T/V=670.7 T/E=22.2", std::move(g)};
}

/// All seven, in the paper's Table 2 order.
[[nodiscard]] inline std::vector<Dataset> all_datasets(double scale = 1.0) {
  std::vector<Dataset> out;
  out.push_back(orkut_like(scale));
  out.push_back(dblp_like(scale));
  out.push_back(skitter_like(scale));
  out.push_back(gearbox_like(scale));
  out.push_back(chebyshev_like(scale));
  out.push_back(jester_like(scale));
  out.push_back(bio_sc_ht_like(scale));
  return out;
}

}  // namespace c3::bench
