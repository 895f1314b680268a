// Clique spectrum: counts of k-cliques for every k at once.
//
// "Finding large cliques" in practice means sweeping k — the paper's own
// evaluation runs k = 6..10. A spectrum does not run one search per k: one
// pivot pass over the oriented graph counts every size at once (pivot.hpp).
// This is a convenience wrapper over PreparedGraph::spectrum (engine.hpp).
#pragma once

#include <vector>

#include "clique/common.hpp"
#include "graph/graph.hpp"

namespace c3 {

struct CliqueSpectrum {
  /// counts[k] = number of k-cliques, for k = 0..omega (counts[0] = 0).
  std::vector<count_t> counts;
  /// The clique number (largest k with counts[k] > 0; 0 for empty graphs).
  node_t omega = 0;
  /// Time spent building the DAG (0 once it exists) vs in the pivot pass.
  double preprocess_seconds = 0.0;
  double search_seconds = 0.0;
};

/// Counts k-cliques for all k = 1..min(kmax, omega) with one pivot pass.
/// `kmax` = 0 means "up to the clique number". The options pick the vertex
/// order that orients the graph, as for the engine of `opts.algorithm`
/// (c3List by default). Throws std::overflow_error when some count exceeds
/// count_t.
[[nodiscard]] CliqueSpectrum clique_spectrum(const Graph& g, int kmax = 0,
                                             const CliqueOptions& opts = {});

}  // namespace c3
