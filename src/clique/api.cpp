#include "clique/api.hpp"

#include "clique/engine.hpp"

namespace c3 {

CliqueResult count_cliques(const Graph& g, int k, const CliqueOptions& opts) {
  return PreparedGraph(g, opts).count(k);
}

CliqueResult list_cliques(const Graph& g, int k, const CliqueCallback& callback,
                          const CliqueOptions& opts) {
  return PreparedGraph(g, opts).list(k, callback);
}

const char* algorithm_name(Algorithm alg) noexcept {
  switch (alg) {
    case Algorithm::C3List:
      return "c3List";
    case Algorithm::C3ListCD:
      return "c3List-CD";
    case Algorithm::Hybrid:
      return "Hybrid";
    case Algorithm::KCList:
      return "kcList";
    case Algorithm::ArbCount:
      return "ArbCount";
    case Algorithm::BruteForce:
      return "BruteForce";
  }
  return "?";
}

const char* vertex_order_name(VertexOrderKind kind) noexcept {
  switch (kind) {
    case VertexOrderKind::Default:
      return "default";
    case VertexOrderKind::ExactDegeneracy:
      return "exact-degeneracy";
    case VertexOrderKind::ApproxDegeneracy:
      return "approx-degeneracy";
    case VertexOrderKind::Degree:
      return "degree";
    case VertexOrderKind::Random:
      return "random";
    case VertexOrderKind::ById:
      return "by-id";
  }
  return "?";
}

const char* edge_order_name(EdgeOrderKind kind) noexcept {
  switch (kind) {
    case EdgeOrderKind::ExactCommunityDegeneracy:
      return "exact-community-degeneracy";
    case EdgeOrderKind::ApproxCommunityDegeneracy:
      return "approx-community-degeneracy";
  }
  return "?";
}

}  // namespace c3
