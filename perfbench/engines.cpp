#include "engines.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

namespace perfbench {
namespace {

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.6f", i > 0 ? ", " : "", v[i]);
    out += buf;
  }
  return out + "]";
}

/// Answers of a budgeted query may legitimately differ between runs once the
/// budget fires; only the untruncated ones are compared.
bool comparable(const Item& item, const c3::Answer& a) {
  return item.query.opts.budget_seconds <= 0.0 || (!a.truncated && !item.answer.truncated);
}

}  // namespace

EngineSet build_engines(Context& ctx, const std::vector<EdgeInput>& inputs, double& build_s,
                        std::array<double, kNumAlgorithms>& prepare_s) {
  EngineSet set;
  for (const EdgeInput& in : inputs) {
    const Tracer::Span span(ctx.tracer, "graph.build");
    set.graphs.push_back(std::make_unique<c3::Graph>(c3::build_graph(in.edges, in.n)));
    build_s += span.seconds();
  }
  for (const auto& g : set.graphs) {
    EngineRow row;
    for (int a = 0; a < kNumAlgorithms; ++a) {
      c3::CliqueOptions opts;
      opts.algorithm = kAlgorithms[a];
      const Tracer::Span span(ctx.tracer, std::string("clique.prepare.") + kAlgKeys[a]);
      row[a] = std::make_unique<c3::PreparedGraph>(*g, opts);
      row[a]->prepare();
      (void)row[a]->clique_number_upper_bound();  // maxclique's artifact, off the first query
      prepare_s[a] += span.seconds();
    }
    set.engines.push_back(std::move(row));
  }
  return set;
}

void timed_setup(Context& ctx, int reps, const std::function<void()>& reset,
                 const std::function<void()>& build) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    reset();
    const Tracer::Span span(ctx.tracer, "setup");
    build();
    times.push_back(span.seconds());
  }
  ctx.metrics.set("setup_s", median(times), "s");
  ctx.report.add_raw("setup_reps_s", json_array(times));
}

void report_setup_layers(Context& ctx, const std::vector<double>& build_s,
                         const std::vector<std::array<double, kNumAlgorithms>>& prepare_s) {
  ctx.metrics.set("graph.build_s", median(build_s), "s");
  for (int a = 0; a < kNumAlgorithms; ++a) {
    std::vector<double> per_rep;
    for (const auto& rep : prepare_s) per_rep.push_back(rep[a]);
    ctx.metrics.set(std::string("clique.prepare_s.") + kAlgKeys[a], median(per_rep), "s");
  }
}

Item make_item(int alg, const c3::PreparedGraph& engine, const std::string& graph,
               const std::string& query_text) {
  Item item;
  item.alg = alg;
  item.engine = &engine;
  item.label = graph + " " + kAlgKeys[alg] + " " + query_text;
  item.query = c3::parse_query(query_text);
  item.graph_edges = static_cast<double>(engine.graph().num_edges());
  return item;
}

double run_item(Context& ctx, Item& item, const c3::Query& query, bool record) {
  c3::Answer answer;
  double wall = 0.0;
  {
    const Tracer::Span span(ctx.tracer, "clique.run", next_request_id());
    answer = item.engine->run(query);
    wall = span.seconds();
  }
  ctx.gate.attempt();
  std::string text = c3::format_answer(answer);
  if (item.answer_text.empty()) {
    item.answer = answer;
    item.answer_text = std::move(text);
  } else if (comparable(item, answer)) {
    ctx.gate.check(text == item.answer_text,
                   item.label + ": answer changed from '" + item.answer_text + "' to '" + text + "'");
  }
  if (record) {
    item.wall.push_back(wall);
    item.search.push_back(answer.stats.search_seconds);
    item.overhead.push_back(wall - answer.stats.search_seconds - answer.stats.preprocess_seconds);
  }
  return wall;
}

void timed_loop(Context& ctx, std::vector<Item>& items, double seconds) {
  // After the first round, a query faster than kItemSeconds repeats within
  // its round, so cheap queries get enough samples for a steady median.
  constexpr double kItemSeconds = 0.5;
  constexpr int kMaxRepeats = 10;
  const double start = now_seconds();
  const double deadline = start + seconds;
  std::size_t samples = 0;
  const auto done = [&] { return samples >= items.size() && now_seconds() >= deadline; };
  while (!done()) {
    for (Item& item : items) {
      const int repeats = item.wall.empty() ? 1
                          : std::clamp(static_cast<int>(std::ceil(kItemSeconds / median(item.wall))),
                                       1, kMaxRepeats);
      for (int r = 0; r < repeats && !done(); ++r) {
        run_item(ctx, item, item.query, true);
        ++samples;
      }
    }
  }
  ctx.report.add_number("timed_s", now_seconds() - start);
  ctx.report.add_number("timed_samples", static_cast<double>(samples));
}

void report_query_s(Context& ctx, const std::vector<Item>& items) {
  std::array<double, kNumAlgorithms> query_s{};
  for (const Item& item : items) {
    ctx.digest.add(item.label + " -> " + item.answer_text);
    query_s[static_cast<std::size_t>(item.alg)] += median(item.wall);
  }
  for (int a = 0; a < kNumAlgorithms; ++a) {
    ctx.metrics.set(std::string("query_s.") + kAlgKeys[a], query_s[static_cast<std::size_t>(a)], "s");
  }
}

void report_requests(Context& ctx, const std::vector<double>& ms, double wall) {
  const double p99 = percentile(ms, 0.99);
  ctx.metrics.set("req_p50_ms", median(ms), "ms");
  ctx.metrics.set("req_p99_ms", p99, "ms");
  ctx.metrics.set("req_per_s", static_cast<double>(ms.size()) / wall, "1/s");
  ctx.report.add_number("req_samples", static_cast<double>(ms.size()));
  ctx.report.add_number(
      "req_beyond_p99",
      static_cast<double>(std::count_if(ms.begin(), ms.end(), [&](double v) { return v > p99; })));
}

void report_list_requests(Context& ctx, const std::vector<Item>& items) {
  std::vector<double> ms;
  double total_s = 0.0;
  for (const Item& item : items) {
    ms.push_back(median(item.wall) * 1e3);
    total_s += median(item.wall);
  }
  report_requests(ctx, ms, total_s);
}

void report_search_layers(Context& ctx, const std::vector<Item>& items) {
  struct PerAlg {
    double search = 0.0, overhead = 0.0, exhaustive_search = 0.0;
    double work = 0.0, bound = 0.0;
    c3::count_t recursive_calls = 0, pairs_probed = 0, edges_matched = 0, leaf_work = 0,
                intersection_words = 0, dense_subproblems = 0;
  };
  std::array<PerAlg, kNumAlgorithms> acc{};
  for (const Item& item : items) {
    PerAlg& p = acc[static_cast<std::size_t>(item.alg)];
    p.search += median(item.search);
    p.overhead += median(item.overhead);
    if (!item.exhaustive) continue;
    const c3::CliqueStats& s = item.answer.stats;
    p.exhaustive_search += median(item.search);
    p.recursive_calls += s.recursive_calls;
    p.pairs_probed += s.pairs_probed;
    p.edges_matched += s.edges_matched;
    p.leaf_work += s.leaf_work;
    p.intersection_words += s.intersection_words;
    p.dense_subproblems += s.dense_subproblems;
    if (item.query.kind == c3::QueryKind::Count) {
      // Theorem 2.1: work O(m * ((gamma + 4 - k) / 2)^(k - 2)); the measured
      // work is the analysis' three cost terms (bench_table1_workbounds).
      p.work += static_cast<double>(s.pairs_probed + s.intersection_words + s.leaf_work);
      p.bound += item.graph_edges * c3::theorem21_growth(static_cast<double>(s.gamma), item.query.k);
    }
  }
  for (int a = 0; a < kNumAlgorithms; ++a) {
    const PerAlg& p = acc[static_cast<std::size_t>(a)];
    const std::string key = kAlgKeys[a];
    ctx.metrics.set("clique.search_s." + key, p.search, "s");
    ctx.metrics.set("clique.query_overhead_s." + key, p.overhead, "s");
    ctx.metrics.set("clique.recursive_calls." + key, static_cast<double>(p.recursive_calls), "count");
    ctx.metrics.set("clique.pairs_probed." + key, static_cast<double>(p.pairs_probed), "count");
    ctx.metrics.set("clique.match_ratio." + key,
                    p.pairs_probed > 0 ? static_cast<double>(p.edges_matched) /
                                             static_cast<double>(p.pairs_probed)
                                       : 0.0,
                    "ratio");
    ctx.metrics.set("clique.leaf_work." + key, static_cast<double>(p.leaf_work), "count");
    ctx.metrics.set("clique.work_over_bound." + key, p.bound > 0.0 ? p.work / p.bound : 0.0, "ratio");
    ctx.metrics.set("clique.intersection_words." + key, static_cast<double>(p.intersection_words),
                    "count");
    ctx.metrics.set("clique.dense_subproblems." + key, static_cast<double>(p.dense_subproblems),
                    "count");
    ctx.metrics.set("util.bitkernels.words_per_s." + key,
                    p.exhaustive_search > 0.0
                        ? static_cast<double>(p.intersection_words) / p.exhaustive_search
                        : 0.0,
                    "1/s");
  }
}

void run_ablations(Context& ctx, std::vector<Item>& items) {
  std::array<double, kNumAlgorithms> base{}, one_worker{};
  double traced = 0.0;
  for (const Item& item : items) {
    if (!item.ablate) continue;
    base[static_cast<std::size_t>(item.alg)] += median(item.wall);
    traced += median(item.wall);
  }
  for (Item& item : items) {
    if (!item.ablate) continue;
    c3::Query q = item.query;
    q.opts.max_workers = 1;
    one_worker[static_cast<std::size_t>(item.alg)] += run_item(ctx, item, q, false);
  }
  const std::array<double, kNumAlgorithms> scalar = run_on_scalar_kernels(ctx, items);

  ctx.tracer.set_enabled(false);
  double untraced = 0.0;
  for (Item& item : items) {
    if (item.ablate) untraced += run_item(ctx, item, item.query, false);
  }
  ctx.tracer.set_enabled(true);

  for (int a = 0; a < kNumAlgorithms; ++a) {
    const auto i = static_cast<std::size_t>(a);
    ctx.metrics.set(std::string("parallel.speedup.") + kAlgKeys[a],
                    base[i] > 0.0 ? one_worker[i] / base[i] : 0.0, "x");
    ctx.metrics.set(std::string("util.bitkernels.scalar_ratio.") + kAlgKeys[a],
                    base[i] > 0.0 ? scalar[i] / base[i] : 0.0, "x");
  }
  ctx.metrics.set("bench.trace_overhead", untraced > 0.0 ? (traced - untraced) / untraced : 0.0,
                  "ratio");
}

std::array<double, kNumAlgorithms> run_on_scalar_kernels(Context& ctx, std::vector<Item>& items) {
  std::array<double, kNumAlgorithms> seconds{};
  const c3::bits::KernelBackend host = c3::bits::active_kernel_backend();
  ctx.gate.check(c3::bits::set_kernel_backend(c3::bits::KernelBackend::Scalar),
                 "cannot pin the scalar kernel backend");
  for (Item& item : items) {
    if (item.ablate) seconds[static_cast<std::size_t>(item.alg)] += run_item(ctx, item, item.query, false);
  }
  ctx.gate.check(c3::bits::set_kernel_backend(host), "cannot restore the host kernel backend");
  return seconds;
}

bool check_equal(Context& ctx, std::uint64_t expected, std::uint64_t actual, const std::string& what) {
  if (ctx.fault_pending) {
    ctx.fault_pending = false;
    ++expected;
  }
  return ctx.gate.check(expected == actual, what + ": expected " + std::to_string(expected) +
                                                ", got " + std::to_string(actual));
}

void probe_artifacts(Context& ctx, const std::vector<const c3::Graph*>& graphs) {
  double read = 0.0, degeneracy = 0.0, orient = 0.0, communities = 0.0, approx = 0.0, cd = 0.0;
  const std::filesystem::path text = ctx.opts.out_dir / "edges.txt";
  for (const c3::Graph* g : graphs) {
    c3::write_edge_list(text, *g);
    {
      const Tracer::Span span(ctx.tracer, "graph.read");
      const c3::EdgeList edges = c3::read_edge_list(text);
      read += span.seconds();
      ctx.gate.attempt();
      ctx.gate.check(edges.size() == g->num_edges(), "edge-list text round trip lost edges");
    }
    std::filesystem::remove(text);
    c3::DegeneracyResult order;
    {
      const Tracer::Span span(ctx.tracer, "order.degeneracy");
      order = c3::degeneracy_order(*g);
      degeneracy += span.seconds();
    }
    c3::Digraph dag;
    {
      const Tracer::Span span(ctx.tracer, "graph.orient");
      dag = c3::Digraph::orient(*g, order.order);
      orient += span.seconds();
    }
    {
      const Tracer::Span span(ctx.tracer, "triangle.communities");
      const c3::EdgeCommunities built = c3::EdgeCommunities::build(dag);
      communities += span.seconds();
    }
    {
      const Tracer::Span span(ctx.tracer, "order.approx_degeneracy");
      const c3::ApproxDegeneracyResult built = c3::approx_degeneracy_order(*g, 0.5);
      approx += span.seconds();
    }
    {
      const Tracer::Span span(ctx.tracer, "order.community_degeneracy");
      const c3::EdgeOrderResult built = c3::community_degeneracy_order(*g);
      cd += span.seconds();
    }
  }
  ctx.metrics.set("graph.read_s", read, "s");
  ctx.metrics.set("order.degeneracy_s", degeneracy, "s");
  ctx.metrics.set("graph.orient_s", orient, "s");
  ctx.metrics.set("triangle.communities_s", communities, "s");
  ctx.metrics.set("order.approx_degeneracy_s", approx, "s");
  ctx.metrics.set("order.community_degeneracy_s", cd, "s");
}

void probe_snapshot(Context& ctx, const c3::PreparedGraph& engine, const std::string& check_query) {
  const std::filesystem::path path = ctx.opts.out_dir / "probe.c3snap";
  {
    const Tracer::Span span(ctx.tracer, "snapshot.write");
    c3::snapshot::write(path, engine);
    ctx.metrics.set("snapshot.write_s", span.seconds(), "s");
  }
  ctx.metrics.set("snapshot.bytes", static_cast<double>(std::filesystem::file_size(path)), "bytes");
  {
    const Tracer::Span span(ctx.tracer, "snapshot.open");
    const c3::snapshot::Snapshot snap = c3::snapshot::Snapshot::open(path);
    ctx.metrics.set("snapshot.open_s", span.seconds(), "s");
    const c3::Query q = c3::parse_query(check_query);
    ctx.gate.attempt();
    ctx.gate.check(c3::format_answer(snap.engine().run(q)) == c3::format_answer(engine.run(q)),
                   "snapshot-loaded engine answers '" + check_query + "' differently");
  }
  std::filesystem::remove(path);
}

void probe_outside_aggregates(Context& ctx) {
  const EdgeInput in = turan(52, 13);
  const c3::Graph g = c3::build_graph(in.edges, in.n);
  const c3::PreparedGraph engine(g, c3::CliqueOptions{});
  engine.prepare();
  const c3::Query q = c3::parse_query("hasclique 14 budget=0.1");
  double wall = 0.0;
  c3::Answer a;
  {
    const Tracer::Span span(ctx.tracer, "clique.run", next_request_id());
    a = engine.run(q);
    wall = span.seconds();
  }
  ctx.gate.attempt();
  ctx.gate.check(!a.found, "T(52,13) reported a 14-clique");
  ctx.metrics.set("clique.budget_overrun_s", std::max(0.0, wall - q.opts.budget_seconds), "s");
  ctx.metrics.set("clique.truncated", a.truncated ? 1.0 : 0.0, "count");
  for (const char* name : kAggregateRatios) ctx.metrics.set(name, 0.0, "x");
}

void report_graphs(Context& ctx, const std::vector<EdgeInput>& inputs) {
  std::string out = "[";
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const c3::Graph g = c3::build_graph(inputs[i].edges, inputs[i].n);
    const c3::node_t s = c3::degeneracy_order(g).degeneracy;
    const std::string shape = inputs[i].name + " n=" + std::to_string(g.num_nodes()) +
                              " m=" + std::to_string(g.num_edges()) + " s=" + std::to_string(s);
    ctx.digest.add(shape);
    out += (i > 0 ? ", " : "") + json_string(shape);
  }
  ctx.report.add_raw("graphs", out + "]");
}

}  // namespace perfbench
