// c3tool — command-line front end for the library.
//
//   c3tool gen      --kind social --n 10000 --m 80000 --seed 1 --out g.txt
//   c3tool stats    --in g.txt
//   c3tool prepare  --in g.txt --out g.c3snap [--alg A]   (build the engine's
//                   artifacts offline and serialize them into a snapshot)
//   c3tool inspect  --in g.c3snap   (header, options fingerprint, artifact
//                   mask, section table — without loading any artifact)
//   c3tool count    --in g.txt --k 7 [--alg c3list|cd|hybrid|kclist|arbcount]
//   c3tool sweep    --in g.txt [--kmin 3 --kmax 0] [--alg A]   (prepare once,
//                   query every k; kmax 0 = up to the clique number)
//   c3tool maxclique --in g.txt
//   c3tool batch    --in g.txt --queries q.txt [--alg A] [--concurrency N]
//                   (prepare once, run a query file through QueryBatch; the
//                   file holds one typed query per line — parse_query's
//                   grammar, including per-query workers=/limit=/budget=)
//   c3tool trace    --in g.txt --query 'count 5' --out trace.json   (run with
//                   tracing on and dump chrome://tracing JSON; --connect
//                   HOST:PORT fetches a live server's trace ring instead)
//   c3tool convert  --in g.txt --out g.metis
//
// count/sweep/maxclique/batch accept --snapshot g.c3snap in place of --in:
// the engine is mmap-loaded from the snapshot (no preparation at startup);
// --alg, if also given, must match the snapshot's fingerprint. Snapshot
// warm-up hints: --prefault (read the file ahead) and --mlock (pin it in
// RAM, best-effort).
//
// Input format is chosen by extension (.txt/.mtx/.metis/.graph/.bin/
// .c3snap); see graph/io.hpp. Generators: social, collab, topo, mesh,
// spectral, rating, bio, er, rmat, ba, hypercube, complete.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "c3list.hpp"
#include "net/client.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace c3;

Graph generate(const CommandLine& cli) {
  const std::string kind = cli.get_string("kind", "social");
  const auto n = static_cast<node_t>(cli.get_int("n", 10'000));
  const auto m = static_cast<edge_t>(cli.get_int("m", 8 * static_cast<long long>(n)));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  if (kind == "social") return social_like(n, m, cli.get_double("closure", 0.4), seed);
  if (kind == "collab")
    return collaboration_like(n, static_cast<count_t>(cli.get_int("papers", n / 2)),
                              static_cast<node_t>(cli.get_int("team", 16)), seed);
  if (kind == "topo")
    return topology_like(n, static_cast<node_t>(cli.get_int("attach", 3)),
                         cli.get_double("closure", 0.5), seed);
  if (kind == "mesh") return mesh_like(n, static_cast<node_t>(cli.get_int("knn", 16)), seed);
  if (kind == "spectral")
    return spectral_like(n, static_cast<node_t>(cli.get_int("band", 8)),
                         static_cast<node_t>(cli.get_int("window", 24)),
                         static_cast<node_t>(cli.get_int("stride", 12)), seed);
  if (kind == "rating")
    return rating_projection(n, static_cast<node_t>(cli.get_int("items", 120)),
                             static_cast<node_t>(cli.get_int("ratings", 8)), seed);
  if (kind == "bio")
    return bio_like(n, m, static_cast<node_t>(cli.get_int("modules", 60)),
                    static_cast<node_t>(cli.get_int("module_size", 22)),
                    cli.get_double("density", 0.7), seed);
  if (kind == "er") return erdos_renyi(n, m, seed);
  if (kind == "rmat") return rmat(n, m, 0.57, 0.19, 0.19, seed);
  if (kind == "ba") return barabasi_albert(n, static_cast<node_t>(cli.get_int("attach", 3)), seed);
  if (kind == "hypercube") return hypercube(static_cast<node_t>(cli.get_int("dim", 10)));
  if (kind == "complete") return complete_graph(n);
  std::fprintf(stderr, "c3tool: unknown generator kind '%s'\n", kind.c_str());
  std::exit(2);
}

void write_any(const Graph& g, const std::string& out) {
  if (out.size() >= 4 && out.substr(out.size() - 4) == ".bin") {
    write_graph_binary(out, g);
  } else if (out.size() >= 6 && out.substr(out.size() - 6) == ".metis") {
    write_graph_metis(out, g);
  } else {
    write_edge_list(out, g);
  }
}

Algorithm parse_algorithm(const std::string& name) {
  if (name == "c3list") return Algorithm::C3List;
  if (name == "cd") return Algorithm::C3ListCD;
  if (name == "hybrid") return Algorithm::Hybrid;
  if (name == "kclist") return Algorithm::KCList;
  if (name == "arbcount") return Algorithm::ArbCount;
  if (name == "brute") return Algorithm::BruteForce;
  std::fprintf(stderr, "c3tool: unknown algorithm '%s'\n", name.c_str());
  std::exit(2);
}

CliqueOptions options_from_cli(const CommandLine& cli) {
  CliqueOptions opts;
  opts.algorithm = parse_algorithm(cli.get_string("alg", "c3list"));
  opts.triangle_growth = cli.has_flag("triangle-growth");
  if (cli.has_flag("no-prune")) opts.distance_pruning = false;
  return opts;
}

/// Opens a snapshot for serving. The artifact fingerprint comes from the
/// file; an explicit --alg must agree with it, and the runtime-only flags
/// (--triangle-growth / --no-prune) apply on top without re-preparing.
/// --prefault / --mlock pass the warm-up hints through.
snapshot::Snapshot open_snapshot(const CommandLine& cli, const std::string& path) {
  snapshot::SnapshotOpenOptions open_opts;
  open_opts.prefault = cli.has_flag("prefault");
  open_opts.lock_memory = cli.has_flag("mlock");
  const auto alg = cli.get("alg");
  const bool triangle_growth = cli.has_flag("triangle-growth");
  const bool no_prune = cli.has_flag("no-prune");
  // The common invocation adopts the snapshot's stored options wholesale —
  // one open, one validation pass.
  if (!alg.has_value() && !triangle_growth && !no_prune) {
    return snapshot::Snapshot::open(path, open_opts);
  }
  CliqueOptions expected = snapshot::inspect(path).options;
  if (alg.has_value()) expected.algorithm = parse_algorithm(*alg);
  if (triangle_growth) expected.triangle_growth = true;
  if (no_prune) expected.distance_pruning = false;
  return snapshot::Snapshot::open(path, expected, open_opts);
}

/// The engine a serving command runs on: mmap-loaded from --snapshot
/// (already prepared, O(1) startup) or built in-process from --in. Heap
/// members so the PreparedGraph's graph reference stays stable across moves.
struct EngineSource {
  std::optional<snapshot::Snapshot> snap;
  std::unique_ptr<Graph> graph;          // --in mode only
  std::unique_ptr<PreparedGraph> local;  // --in mode only
  double load_seconds = 0.0;

  [[nodiscard]] const PreparedGraph& engine() const {
    return snap.has_value() ? snap->engine() : *local;
  }
  [[nodiscard]] bool from_snapshot() const { return snap.has_value(); }
};

EngineSource make_engine(const CommandLine& cli) {
  EngineSource src;
  WallTimer timer;
  if (const auto path = cli.get("snapshot")) {
    src.snap.emplace(open_snapshot(cli, *path));
    if (cli.has_flag("mlock") && !src.snap->memory_locked()) {
      std::fprintf(stderr,
                   "c3tool: warning: mlock refused (RLIMIT_MEMLOCK?) — serving unpinned\n");
    }
  } else {
    src.graph = std::make_unique<Graph>(read_graph_any(cli.get_string("in", "graph.txt")));
    src.local = std::make_unique<PreparedGraph>(*src.graph, options_from_cli(cli));
  }
  src.load_seconds = timer.seconds();
  return src;
}

int cmd_gen(const CommandLine& cli) {
  const Graph g = generate(cli);
  const std::string out = cli.get_string("out", "graph.txt");
  write_any(g, out);
  std::printf("wrote %s: %u vertices, %llu edges\n", out.c_str(), g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()));
  return 0;
}

int cmd_stats(const CommandLine& cli) {
  const Graph g = read_graph_any(cli.get_string("in", "graph.txt"));
  const GraphStats s = compute_stats(g);
  const node_t sigma = community_degeneracy(g);
  Table t({"|V|", "|E|", "|T|", "s", "sigma", "maxdeg", "E/V", "T/V", "T/E"});
  t.add_row({with_commas(s.nodes), with_commas(s.edges), with_commas(s.triangles),
             std::to_string(s.degeneracy), std::to_string(sigma), std::to_string(s.max_degree),
             strfmt("%.2f", s.edges_per_node), strfmt("%.2f", s.triangles_per_node),
             strfmt("%.2f", s.triangles_per_edge)});
  t.print();
  return 0;
}

int cmd_prepare(const CommandLine& cli) {
  const std::string in = cli.get_string("in", "graph.txt");
  const std::string out = cli.get_string("out", "graph.c3snap");
  const Graph g = read_graph_any(in);
  const CliqueOptions opts = options_from_cli(cli);
  const PreparedGraph engine(g, opts);
  WallTimer timer;
  snapshot::write(out, engine);  // forces preparation, then serializes
  const double total = timer.seconds();
  const snapshot::SnapshotInfo info = snapshot::inspect(out);
  std::printf("prepared %s with %s in %.3f s (prepare %.3f s, %d artifacts)\n", in.c_str(),
              algorithm_name(opts.algorithm), total, engine.prepare_seconds(),
              engine.artifacts_built());
  Table t({"section", "offset", "bytes", "elements"});
  for (const snapshot::SectionInfo& s : info.sections) {
    t.add_row({s.name, std::to_string(s.offset), with_commas(s.bytes), with_commas(s.count)});
  }
  t.print();
  std::printf("wrote %s: %s bytes, %u vertices, %llu edges\n", out.c_str(),
              with_commas(info.file_bytes).c_str(), g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()));
  return 0;
}

int cmd_count(const CommandLine& cli) {
  const EngineSource src = make_engine(cli);
  const PreparedGraph& engine = src.engine();
  const int k = static_cast<int>(cli.get_int("k", 5));
  WallTimer timer;
  const CliqueResult r = engine.count(k);
  std::printf("%llu %d-cliques in %.3f s (%s%s; prep %.3f s, gamma %u)\n",
              static_cast<unsigned long long>(r.count), k, timer.seconds(),
              algorithm_name(engine.options().algorithm),
              src.from_snapshot() ? ", snapshot" : "", r.stats.preprocess_seconds, r.stats.gamma);
  return 0;
}

int cmd_sweep(const CommandLine& cli) {
  const EngineSource src = make_engine(cli);
  const PreparedGraph& engine = src.engine();
  const int kmin = static_cast<int>(cli.get_int("kmin", 3));
  const int kmax = static_cast<int>(cli.get_int("kmax", 0));

  // Prepare once (a no-op for a snapshot-loaded engine); every query below
  // reuses the artifacts (its stats report zero preprocess seconds).
  WallTimer prep_timer;
  engine.prepare();
  const int hi = kmax > 0 ? kmax : static_cast<int>(engine.clique_number_upper_bound());
  std::printf("%s %s in %.3f s (omega <= %d)\n", algorithm_name(engine.options().algorithm),
              src.from_snapshot() ? "snapshot-loaded" : "prepared",
              src.from_snapshot() ? src.load_seconds : prep_timer.seconds(),
              static_cast<int>(engine.clique_number_upper_bound()));

  Table t({"k", "#cliques", "search[s]"});
  for (int k = kmin; k <= hi; ++k) {
    const CliqueResult r = engine.count(k);
    t.add_row({std::to_string(k), with_commas(r.count), strfmt("%.3f", r.stats.search_seconds)});
    if (r.count == 0 && k >= 3) break;  // past the clique number
  }
  t.print();
  return 0;
}

int cmd_batch(const CommandLine& cli) {
  const EngineSource src = make_engine(cli);
  const PreparedGraph& engine = src.engine();
  const std::string queries_path = cli.get_string("queries", "");
  if (queries_path.empty()) {
    std::fprintf(stderr, "c3tool batch: --queries FILE is required\n");
    return 2;
  }
  std::ifstream in(queries_path);
  if (!in) {
    std::fprintf(stderr, "c3tool batch: cannot read %s\n", queries_path.c_str());
    return 2;
  }
  // One grammar for files, tools, and servers: parse_query (query.hpp). A
  // malformed line is a hard error naming the offending token — a typo must
  // not degrade into a different (possibly far more expensive) query.
  QueryBatch batch(engine);
  try {
    for (Query& q : parse_query_file(in)) (void)batch.add(std::move(q));
  } catch (const QueryParseError& e) {
    std::fprintf(stderr, "c3tool batch: %s: %s\n", queries_path.c_str(), e.what());
    return 2;
  }
  if (batch.size() == 0) {
    std::fprintf(stderr, "c3tool batch: %s holds no queries\n", queries_path.c_str());
    return 2;
  }

  WallTimer prep_timer;
  engine.prepare();
  const double prep = prep_timer.seconds();
  WallTimer batch_timer;
  const std::vector<Answer> answers =
      batch.answers(static_cast<int>(cli.get_int("concurrency", 0)));
  const double total = batch_timer.seconds();

  Table t({"#", "query", "answer", "time[s]"});
  for (std::size_t i = 0; i < answers.size(); ++i) {
    t.add_row({std::to_string(i), format_query(batch.queries()[i]),
               format_answer(answers[i]), strfmt("%.3f", answers[i].seconds)});
  }
  t.print();
  std::printf("%zu queries in %.3f s wall (prepare %.3f s, %s%s)\n", answers.size(), total, prep,
              algorithm_name(engine.options().algorithm),
              src.from_snapshot() ? ", snapshot" : "");
  return 0;
}

int cmd_inspect(const CommandLine& cli) {
  const std::string in = cli.get_string("in", "graph.c3snap");
  const snapshot::SnapshotInfo info = snapshot::inspect(in);
  const CliqueOptions& o = info.options;
  std::printf("%s: c3 snapshot v%u (artifact schema %u), %s bytes\n", in.c_str(),
              info.format_version, info.artifact_schema, with_commas(info.file_bytes).c_str());
  std::printf("graph: %s vertices, %s edges\n", with_commas(info.num_nodes).c_str(),
              with_commas(info.num_edges).c_str());
  std::printf("fingerprint: alg %s, vertex order %s, edge order %s, eps %g, seed %llu%s%s\n",
              algorithm_name(o.algorithm), vertex_order_name(o.vertex_order),
              edge_order_name(o.edge_order), o.eps,
              static_cast<unsigned long long>(o.order_seed),
              o.distance_pruning ? "" : ", no-prune", o.triangle_growth ? ", triangle-growth" : "");
  std::string artifacts;
  if (info.has(snapshot::kArtifactDag)) artifacts += " dag";
  if (info.has(snapshot::kArtifactCommunities)) artifacts += " communities";
  if (info.has(snapshot::kArtifactEdgeOrder)) artifacts += " edge-order";
  if (info.has(snapshot::kArtifactExactDegeneracy)) artifacts += " exact-degeneracy";
  std::printf("artifacts (mask 0x%x):%s\n", info.artifact_mask,
              artifacts.empty() ? " none" : artifacts.c_str());
  std::printf("kernel: %s (best on this host: %s)\n",
              bits::kernel_backend_name(bits::active_kernel_backend()),
              bits::kernel_backend_name(bits::best_kernel_backend()));
  Table t({"section", "offset", "bytes", "elements", "checksum"});
  for (const snapshot::SectionInfo& s : info.sections) {
    t.add_row({s.name, std::to_string(s.offset), with_commas(s.bytes), with_commas(s.count),
               strfmt("0x%016llx", static_cast<unsigned long long>(s.checksum))});
  }
  t.print();
  return 0;
}

int cmd_maxclique(const CommandLine& cli) {
  const EngineSource src = make_engine(cli);
  WallTimer timer;
  const auto witness = src.engine().max_clique();
  std::printf("omega = %zu (%.3f s); witness:", witness.size(), timer.seconds());
  for (const node_t v : witness) std::printf(" %u", v);
  std::printf("\n");
  return 0;
}

/// `c3tool trace` — dump query-lifecycle traces as chrome://tracing JSON
/// (load the file at chrome://tracing or https://ui.perfetto.dev).
///
/// Local mode: run --query (or a --queries file) against --in/--snapshot
/// with tracing forced on, then dump the trace ring. Connect mode
/// (--connect HOST:PORT): fetch a running server's ring via the `trace`
/// admin word instead.
int cmd_trace(const CommandLine& cli) {
  const std::string out_path = cli.get_string("out", "trace.json");
  std::string json;
  if (const auto connect = cli.get("connect")) {
    const std::size_t colon = connect->rfind(':');
    if (colon == std::string::npos || colon + 1 == connect->size()) {
      std::fprintf(stderr, "c3tool trace: bad --connect '%s' (want HOST:PORT)\n",
                   connect->c_str());
      return 2;
    }
    const std::string host = connect->substr(0, colon);
    const auto port = static_cast<std::uint16_t>(std::stoul(connect->substr(colon + 1)));
    // The whole ring arrives as one JSON line; give it generous headroom.
    net::LineClient client(host, port, 10.0, std::size_t{64} << 20);
    json = client.request("trace");
  } else {
    obs::set_enabled(true);  // --in mode forces tracing even under C3_OBS=off
    obs::TraceRing::global().clear();
    const EngineSource src = make_engine(cli);
    const PreparedGraph& engine = src.engine();
    const std::string graph_id = cli.get_string("snapshot", cli.get_string("in", "graph.txt"));

    std::vector<Query> queries;
    try {
      if (const auto queries_path = cli.get("queries")) {
        std::ifstream in(*queries_path);
        if (!in) {
          std::fprintf(stderr, "c3tool trace: cannot read %s\n", queries_path->c_str());
          return 2;
        }
        queries = parse_query_file(in);
      } else {
        queries.push_back(parse_query(cli.get_string("query", "count 5")));
      }
    } catch (const QueryParseError& e) {
      std::fprintf(stderr, "c3tool trace: %s\n", e.what());
      return 2;
    }

    for (const Query& q : queries) {
      auto trace = std::make_unique<obs::TraceContext>(graph_id, format_query(q));
      const Answer answer = engine.run(q, trace.get());
      trace.reset();  // publish into the ring
      std::printf("%s -> %s\n", format_query(q).c_str(), format_answer(answer).c_str());
    }
    json = obs::chrome_trace_json(obs::TraceRing::global().snapshot());
  }

  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "c3tool trace: cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << json << '\n';
  out.close();
  std::printf("wrote %s (%zu bytes) — load at chrome://tracing\n", out_path.c_str(),
              json.size() + 1);
  return 0;
}

int cmd_convert(const CommandLine& cli) {
  const Graph g = read_graph_any(cli.get_string("in", "graph.txt"));
  const std::string out = cli.get_string("out", "graph.bin");
  write_any(g, out);
  std::printf("converted to %s (%u vertices, %llu edges)\n", out.c_str(), g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()));
  return 0;
}

void usage() {
  std::puts(
      "usage: c3tool <gen|stats|prepare|inspect|count|sweep|maxclique|batch|trace|convert>"
      " [--flags]\n"
      "  gen       --kind K --n N [--m M --seed S] --out FILE\n"
      "  stats     --in FILE\n"
      "  prepare   --in FILE --out FILE.c3snap [--alg A]  (build artifacts offline,\n"
      "            serialize graph + prepared engine into an mmap-able snapshot)\n"
      "  inspect   --in FILE.c3snap  (header, fingerprint, artifact mask, sections\n"
      "            — validates the header without loading any artifact)\n"
      "  count     --in FILE --k K [--alg A] [--triangle-growth] [--no-prune]\n"
      "  sweep     --in FILE [--kmin 3] [--kmax 0] [--alg A]  (prepare once, all k)\n"
      "  maxclique --in FILE\n"
      "  batch     --in FILE --queries FILE [--alg A] [--concurrency N]\n"
      "            query file lines: count K | list K | hasclique K | findclique K |\n"
      "            vertexcounts K | edgecounts K | spectrum [KMAX] | maxclique,\n"
      "            each optionally followed by workers=N limit=N budget=SECONDS\n"
      "            witness=0|1 (per-query worker caps, result limits, deadlines)\n"
      "  trace     --in FILE [--query 'count 5' | --queries FILE] [--out trace.json]\n"
      "            or --connect HOST:PORT — dump query-lifecycle stage spans as\n"
      "            chrome://tracing JSON (local run, or a server's trace ring)\n"
      "  convert   --in FILE --out FILE\n"
      "\n"
      "count/sweep/maxclique/batch also take --snapshot FILE.c3snap instead of\n"
      "--in: the prepared engine is mmap-loaded (zero preparation at startup);\n"
      "an explicit --alg must match the snapshot's fingerprint. --prefault asks\n"
      "the kernel to read the snapshot ahead; --mlock pins it in RAM\n"
      "(best-effort).\n"
      "\n"
      "graph formats, by extension (read unless noted):\n"
      "  .txt (or anything else)  whitespace edge list; '#'/'%' comments;\n"
      "                           symmetrized + deduplicated (read/write)\n"
      "  .mtx                     MatrixMarket coordinate, pattern symmetrized\n"
      "  .metis | .graph          METIS adjacency; weights skipped (read/write)\n"
      "  .bin                     c3 binary edge list (read/write)\n"
      "  .c3snap                  engine snapshot; reading takes the graph\n"
      "                           section (write via `c3tool prepare`)");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const CommandLine cli(argc - 1, argv + 1);
  const std::string command = argv[1];
  try {
    if (command == "gen") return cmd_gen(cli);
    if (command == "stats") return cmd_stats(cli);
    if (command == "prepare") return cmd_prepare(cli);
    if (command == "inspect") return cmd_inspect(cli);
    if (command == "count") return cmd_count(cli);
    if (command == "sweep") return cmd_sweep(cli);
    if (command == "maxclique") return cmd_maxclique(cli);
    if (command == "batch") return cmd_batch(cli);
    if (command == "trace") return cmd_trace(cli);
    if (command == "convert") return cmd_convert(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "c3tool: %s\n", e.what());
    return 1;
  }
  usage();
  return 2;
}
