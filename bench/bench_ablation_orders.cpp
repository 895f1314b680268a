// Ablation of the orientation/preprocessing choices of Section 4 — the rows
// of Table 1 head-to-head: exact degeneracy vs (2+eps)-approximate vs hybrid
// vs the two community-degeneracy edge orders.
#include <cstdio>

#include "c3list.hpp"
#include "datasets.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

void row(const char* name, const c3::Graph& g, int k, const c3::CliqueOptions& opts,
         c3::Table& table) {
  c3::WallTimer timer;
  const c3::CliqueResult r = c3::count_cliques(g, k, opts);
  const double total = timer.seconds();
  table.add_row({name, std::to_string(k), std::to_string(r.stats.order_quality),
                 std::to_string(r.stats.gamma), c3::strfmt("%.3f", r.stats.preprocess_seconds),
                 c3::strfmt("%.3f", total), c3::with_commas(r.count)});
}

}  // namespace

int main(int argc, char** argv) {
  const c3::CommandLine cli(argc, argv);
  const double scale = cli.get_double("scale", 1.0);

  std::printf("# Ablation — graph orientation / preprocessing variants (Section 4)\n");
  std::printf("# quality = max out-degree (or max |V'| for edge orders); gamma = largest\n");
  std::printf("# candidate universe the recursion sees; prep = order+communities time.\n\n");

  const c3::bench::Dataset ds = c3::bench::dblp_like(scale);
  std::printf("## %s stand-in\n", ds.name.c_str());

  c3::Table table({"variant", "k", "quality", "gamma", "prep[s]", "total[s]", "#cliques"});
  for (const int k : {6, 8, 10}) {
    c3::CliqueOptions exact;
    exact.vertex_order = c3::VertexOrderKind::ExactDegeneracy;
    row("c3 exact-degeneracy (best work)", ds.graph, k, exact, table);

    c3::CliqueOptions approx;
    approx.vertex_order = c3::VertexOrderKind::ApproxDegeneracy;
    row("c3 approx-degeneracy (best depth)", ds.graph, k, approx, table);

    c3::CliqueOptions byid;
    byid.vertex_order = c3::VertexOrderKind::ById;
    row("c3 id-order (no preprocessing)", ds.graph, k, byid, table);

    c3::CliqueOptions hybrid;
    hybrid.algorithm = c3::Algorithm::Hybrid;
    row("hybrid (Sec 4.2)", ds.graph, k, hybrid, table);

    c3::CliqueOptions cd_exact;
    cd_exact.algorithm = c3::Algorithm::C3ListCD;
    cd_exact.edge_order = c3::EdgeOrderKind::ExactCommunityDegeneracy;
    row("cd exact sigma-order (best work)", ds.graph, k, cd_exact, table);

    c3::CliqueOptions cd_approx;
    cd_approx.algorithm = c3::Algorithm::C3ListCD;
    cd_approx.edge_order = c3::EdgeOrderKind::ApproxCommunityDegeneracy;
    row("cd Algorithm-4 order (best depth)", ds.graph, k, cd_approx, table);
  }
  table.print();
  return 0;
}
