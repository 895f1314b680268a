// The three batch workloads: paper_sweep, aggregates, dense_blocks. Each
// prepares its engines in set-up, then times a fixed query list through
// PreparedGraph::run and cross-checks the answers.
#include <numeric>

#include "engines.hpp"
#include "serve.hpp"

namespace perfbench {
namespace {

/// Set-up shared by the batch workloads: build and prepare every (graph,
/// algorithm) engine kSetupReps times, keeping the last set.
EngineSet setup_batch(Context& ctx, const std::vector<EdgeInput>& inputs) {
  EngineSet set;
  std::vector<double> build_s;
  std::vector<std::array<double, kNumAlgorithms>> prepare_s;
  timed_setup(
      ctx, kSetupReps, [&] { set = EngineSet{}; },
      [&] {
        double build = 0.0;
        std::array<double, kNumAlgorithms> prepare{};
        set = build_engines(ctx, inputs, build, prepare);
        build_s.push_back(build);
        prepare_s.push_back(prepare);
      });
  report_setup_layers(ctx, build_s, prepare_s);
  return set;
}

/// Timed loop, end-to-end metrics, and in a traced run the search layers,
/// the ablations and the probes of the layers outside the engine.
void measure_batch(Context& ctx, std::vector<Item>& items, const EngineSet& set) {
  timed_loop(ctx, items, ctx.opts.seconds);
  report_query_s(ctx, items);
  report_list_requests(ctx, items);
  if (!ctx.opts.trace) return;
  report_search_layers(ctx, items);
  run_ablations(ctx, items);
  std::vector<const c3::Graph*> graphs;
  for (const auto& g : set.graphs) graphs.push_back(g.get());
  probe_artifacts(ctx, graphs);
  probe_snapshot(ctx, *set.engines.front()[0], "count 5");
  probe_net(ctx, *set.graphs.front());
}

/// Every algorithm's answer to the same question on the same graph must be
/// the same: items[i] for i in `group` are compared by count.
void check_counts_agree(Context& ctx, const std::vector<Item>& items, const std::vector<std::size_t>& group) {
  for (const std::size_t i : group) {
    check_equal(ctx, items[group.front()].answer.count, items[i].answer.count,
                items[i].label + " vs " + kAlgKeys[items[group.front()].alg]);
  }
}

}  // namespace

// Figure 8: five algorithms x three paper-scale stand-ins x count k, k=6..10.
void run_paper_sweep(Context& ctx) {
  const std::vector<EdgeInput> inputs = {orkut_like(ctx.opts.seed, ctx.opts.tiny),
                                         dblp_like(ctx.opts.seed, ctx.opts.tiny),
                                         skitter_like(ctx.opts.seed, ctx.opts.tiny)};
  report_graphs(ctx, inputs);
  EngineSet set = setup_batch(ctx, inputs);

  std::vector<Item> items;
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t g = 0; g < inputs.size(); ++g) {
    for (int k = 6; k <= 10; ++k) {
      groups.emplace_back();
      for (int a = 0; a < kNumAlgorithms; ++a) {
        groups.back().push_back(items.size());
        Item item = make_item(a, *set.engines[g][static_cast<std::size_t>(a)], inputs[g].name,
                              "count " + std::to_string(k));
        item.exhaustive = true;
        item.ablate = g == 0 && k <= 7;
        items.push_back(std::move(item));
      }
    }
  }
  measure_batch(ctx, items, set);
  for (const auto& group : groups) check_counts_agree(ctx, items, group);
  if (ctx.opts.trace) probe_outside_aggregates(ctx);
}

// The search reached through the aggregation callbacks and the stop controls.
void run_aggregates(Context& ctx) {
  const std::vector<EdgeInput> inputs = {orkut_like(ctx.opts.seed, ctx.opts.tiny), turan(52, 13)};
  report_graphs(ctx, inputs);
  EngineSet set = setup_batch(ctx, inputs);

  const std::vector<std::string> orkut_queries = {"count 6",    "vertexcounts 6",
                                                  "edgecounts 6", "spectrum 8",
                                                  "count 6 budget=1000", "maxclique witness=0"};
  std::vector<Item> items;
  for (int a = 0; a < kNumAlgorithms; ++a) {
    for (const std::string& q : orkut_queries) {
      Item item = make_item(a, *set.engines[0][static_cast<std::size_t>(a)], inputs[0].name, q);
      item.exhaustive = item.query.opts.budget_seconds == 0.0 && item.query.kind != c3::QueryKind::MaxClique;
      item.ablate = q == "count 6";
      items.push_back(std::move(item));
    }
    items.push_back(make_item(a, *set.engines[1][static_cast<std::size_t>(a)], inputs[1].name,
                              "hasclique 14 budget=0.1"));
  }
  measure_batch(ctx, items, set);

  // Per algorithm: the aggregates must be consistent with its plain count,
  // and every algorithm must agree with c3List.
  const std::size_t per_alg = orkut_queries.size() + 1;
  double base = 0.0, vertexcounts = 0.0, edgecounts = 0.0, spectrum = 0.0, budgeted = 0.0;
  double overrun = 0.0;
  c3::count_t truncated = 0;
  for (int a = 0; a < kNumAlgorithms; ++a) {
    const Item* it = &items[static_cast<std::size_t>(a) * per_alg];
    const Item* ref = &items[0];
    const std::string alg = kAlgKeys[a];
    const c3::count_t count = it[0].answer.count;
    const auto sum = [](const std::vector<c3::count_t>& v) {
      return std::accumulate(v.begin(), v.end(), c3::count_t{0});
    };
    check_equal(ctx, ref[0].answer.count, count, alg + " count 6 vs c3list");
    check_equal(ctx, 6 * count, sum(it[1].answer.per_counts), alg + " sum(vertexcounts 6) = 6 count");
    check_equal(ctx, 15 * count, sum(it[2].answer.per_counts), alg + " sum(edgecounts 6) = 15 count");
    ctx.gate.check(it[1].answer.per_counts == ref[1].answer.per_counts, alg + " vertexcounts differ from c3list");
    ctx.gate.check(it[2].answer.per_counts == ref[2].answer.per_counts, alg + " edgecounts differ from c3list");
    const auto& counts = it[3].answer.spectrum.counts;
    check_equal(ctx, count, counts.size() > 6 ? counts[6] : 0, alg + " spectrum[6] = count 6");
    ctx.gate.check(counts == ref[3].answer.spectrum.counts, alg + " spectrum differs from c3list");
    if (!it[4].answer.truncated) check_equal(ctx, count, it[4].answer.count, alg + " budgeted count");
    check_equal(ctx, ref[5].answer.omega, it[5].answer.omega, alg + " omega vs c3list");
    ctx.gate.check(!it[6].answer.found, alg + ": T(52,13) reported a 14-clique");

    base += median(it[0].wall);
    vertexcounts += median(it[1].wall);
    edgecounts += median(it[2].wall);
    spectrum += median(it[3].wall);
    budgeted += median(it[4].wall);
    for (const int b : {4, 6}) {
      truncated += it[b].answer.truncated ? 1 : 0;
      for (const double w : it[b].wall) overrun = std::max(overrun, w - it[b].query.opts.budget_seconds);
    }
  }
  if (!ctx.opts.trace) return;
  ctx.metrics.set(kAggregateRatios[0], vertexcounts / base, "x");
  ctx.metrics.set(kAggregateRatios[1], edgecounts / base, "x");
  ctx.metrics.set(kAggregateRatios[2], spectrum / base, "x");
  ctx.metrics.set(kAggregateRatios[3], budgeted / base, "x");
  ctx.metrics.set("clique.budget_overrun_s", std::max(0.0, overrun), "s");
  ctx.metrics.set("clique.truncated", static_cast<double>(truncated), "count");
}

// Wide community rows: the SIMD kernel dispatch and the dense subproblems.
void run_dense_blocks(Context& ctx) {
  const std::vector<EdgeInput> inputs = {dense_blocks(ctx.opts.seed, ctx.opts.tiny)};
  report_graphs(ctx, inputs);
  EngineSet set = setup_batch(ctx, inputs);

  std::vector<Item> items;
  std::vector<std::size_t> group;
  for (int a = 0; a < kNumAlgorithms; ++a) {
    group.push_back(items.size());
    Item item = make_item(a, *set.engines[0][static_cast<std::size_t>(a)], inputs[0].name, "count 4");
    item.exhaustive = true;
    item.ablate = true;
    items.push_back(std::move(item));
  }
  measure_batch(ctx, items, set);
  // The traced run's ablations already ran every item on scalar kernels.
  if (!ctx.opts.trace) (void)run_on_scalar_kernels(ctx, items);
  check_counts_agree(ctx, items, group);
  if (ctx.opts.trace) probe_outside_aggregates(ctx);
}

}  // namespace perfbench
