// c3List — the paper's community-centric k-clique listing algorithm
// (Algorithm 1 driving Algorithm 2).
//
// Pipeline: orient the graph by a total vertex order (Section 4), build and
// sort all edge communities (Section 2.2), then — in parallel over the
// source vertices — gather the edges from u supporting at least k-2
// triangles, rename the union U(u) of their targets and communities to a
// local universe, build its indicator-table adjacency once, and run the
// recursive search for (k-2)-cliques inside each edge's community, a
// masked row of that adjacency. Work/depth bounds: Theorem 2.1,
// instantiated by the chosen order per Table 1.
//
// The pipeline is split into a prepare half (order + orientation +
// communities, owned by PreparedGraph in engine.hpp) and the search half
// below, so one preparation can serve many k queries.
#pragma once

#include "clique/common.hpp"
#include "clique/scratch.hpp"
#include "graph/digraph.hpp"
#include "triangle/communities.hpp"

namespace c3 {

/// Search half of Algorithm 1 on prepared artifacts: requires k >= 3, an
/// oriented `dag` and its edge communities. `sink` picks counting, listing
/// or aggregation (whose edge slots are arc ids of `dag`); `stop` is the
/// query's stop source (stop.hpp), polled in every mode. `scratch` is this
/// query's leased state, whose for_each_source runs the search — reused
/// warm across queries, and the only mutable state the search touches, so
/// concurrent callers with distinct leases never interfere. Stats report
/// only the search (preprocess_seconds stays 0). Callers reach it through
/// PreparedGraph (engine.hpp) or count_cliques / list_cliques (api.hpp).
[[nodiscard]] CliqueResult c3list_search(const Digraph& dag, const EdgeCommunities& comms, int k,
                                         const CliqueSink& sink, StopSource& stop,
                                         const CliqueOptions& opts, QueryScratch& scratch);

}  // namespace c3
