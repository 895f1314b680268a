#include "clique/spectrum.hpp"

#include "clique/engine.hpp"

namespace c3 {

CliqueSpectrum clique_spectrum(const Graph& g, int kmax, const CliqueOptions& opts) {
  return PreparedGraph(g, opts).spectrum(kmax);
}

}  // namespace c3
