// c3list — parallel community-centric k-clique listing in sparse graphs.
//
// Umbrella header: include this to get the full public API (namespace c3).
//
//   Graph construction      graph/builder.hpp, graph/io.hpp, graph/gen/*
//   Orientation & orders    order/degeneracy.hpp, order/approx_degeneracy.hpp,
//                           order/community_degeneracy.hpp
//   Triangles/communities   triangle/triangle_count.hpp, triangle/communities.hpp
//   Clique counting         clique/api.hpp (count_cliques / list_cliques;
//                           CliqueOptions::algorithm picks the algorithm)
//   Typed queries           clique/query.hpp (Query/Answer: one sum type for
//                           every question, with per-query worker caps,
//                           budgets, and text round-tripping)
//   Prepared queries        clique/engine.hpp (PreparedGraph: prepare once,
//                           run(Query) or the named wrappers, concurrently
//                           from any number of threads)
//   Graph catalog           clique/service.hpp (CliqueService: many named
//                           graphs — in-memory or snapshot-backed — behind
//                           one run(id, query) surface)
//   Snapshots               snapshot/snapshot.hpp (serialize a prepared
//                           engine offline, mmap it back at serve time)
//   Individual algorithms   clique/c3list.hpp, clique/c3list_cd.hpp,
//                           clique/hybrid.hpp, clique/kclist.hpp,
//                           clique/arbcount.hpp (search halves on prepared
//                           artifacts, run through PreparedGraph),
//                           clique/bruteforce.hpp
//   Extensions              clique/max_clique.hpp, clique/spectrum.hpp,
//                           clique/vertex_counts.hpp, clique/peeling.hpp
//
// Reproduction of: Gianinazzi, Besta, Schaffner, Hoefler, "Parallel
// Algorithms for Finding Large Cliques in Sparse Graphs", SPAA 2021.
#pragma once

#include "clique/answer_cache.hpp"
#include "clique/api.hpp"
#include "clique/arbcount.hpp"
#include "clique/bruteforce.hpp"
#include "clique/c3list.hpp"
#include "clique/c3list_cd.hpp"
#include "clique/combinatorics.hpp"
#include "clique/engine.hpp"
#include "clique/hybrid.hpp"
#include "clique/kclist.hpp"
#include "clique/max_clique.hpp"
#include "clique/peeling.hpp"
#include "clique/query.hpp"
#include "clique/service.hpp"
#include "clique/spectrum.hpp"
#include "clique/vertex_counts.hpp"
#include "graph/builder.hpp"
#include "graph/digraph.hpp"
#include "graph/gen/generators.hpp"
#include "graph/gen/paper_examples.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "graph/subgraph.hpp"
#include "net/client.hpp"
#include "net/frontend.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "order/approx_degeneracy.hpp"
#include "order/community_degeneracy.hpp"
#include "order/degeneracy.hpp"
#include "parallel/parallel.hpp"
#include "snapshot/snapshot.hpp"
#include "triangle/communities.hpp"
#include "triangle/triangle_count.hpp"
#include "util/bitkernels.hpp"
