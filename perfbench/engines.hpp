// Batch machinery shared by the workloads: engine set-up, the timed query
// loop, the per-algorithm metrics it yields, the ablations of a traced run,
// and the per-layer probes that call single layers outside the engine.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "inputs.hpp"

namespace perfbench {

using EngineRow = std::array<std::unique_ptr<c3::PreparedGraph>, kNumAlgorithms>;

/// Built graphs and one prepared engine per (graph, algorithm).
struct EngineSet {
  std::vector<std::unique_ptr<c3::Graph>> graphs;
  std::vector<EngineRow> engines;  // engines[graph][alg]
};

/// Builds every input (build_graph) and prepares one engine per algorithm on
/// each, inside `graph.build` and `clique.prepare.<alg>` spans. Adds the
/// build and per-algorithm prepare seconds to `build_s` and `prepare_s`.
[[nodiscard]] EngineSet build_engines(Context& ctx, const std::vector<EdgeInput>& inputs,
                                      double& build_s, std::array<double, kNumAlgorithms>& prepare_s);

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 3;

/// Runs `build` `reps` times, timing each, and reports the median as
/// setup_s. `reset` drops the previous rep's state first, untimed.
void timed_setup(Context& ctx, int reps, const std::function<void()>& reset,
                 const std::function<void()>& build);

/// Records the per-layer set-up metrics gathered over the reps (medians).
void report_setup_layers(Context& ctx, const std::vector<double>& build_s,
                         const std::vector<std::array<double, kNumAlgorithms>>& prepare_s);

/// One entry of a workload's fixed query list.
struct Item {
  int alg = 0;
  const c3::PreparedGraph* engine = nullptr;
  std::string label;    ///< "<graph> <alg> <query text>", for messages
  c3::Query query;
  bool exhaustive = false;  ///< runs the whole search: its counters repeat exactly
  bool ablate = false;      ///< in the traced run's ablation subset
  double graph_edges = 0.0;       ///< m of the item's graph (Theorem 2.1 bound)
  std::vector<double> wall;       ///< run() wall seconds per sample
  std::vector<double> search;     ///< CliqueStats::search_seconds per sample
  std::vector<double> overhead;   ///< wall - search - prepare, per sample
  c3::Answer answer;              ///< the first sample's answer
  std::string answer_text;        ///< format_answer of it
};

[[nodiscard]] Item make_item(int alg, const c3::PreparedGraph& engine, const std::string& graph,
                             const std::string& query_text);

/// One run() of `item` inside a `clique.run` span; checks that the answer
/// matches the item's first answer. Returns the wall seconds.
double run_item(Context& ctx, Item& item, const c3::Query& query, bool record);

/// Round-robin over `items` until `seconds` have passed, always completing
/// the first round; later rounds repeat the cheap queries. Reports the
/// loop's wall time and sample count.
void timed_loop(Context& ctx, std::vector<Item>& items, double seconds);

/// query_s.<alg>: the sum of the per-item median wall times. Also adds every
/// answer to the digest.
void report_query_s(Context& ctx, const std::vector<Item>& items);

/// req_p50_ms, req_p99_ms (nearest rank) and req_per_s over `ms` collected
/// in `wall` seconds; the report gets the sample count and how many samples
/// lie beyond the p99.
void report_requests(Context& ctx, const std::vector<double>& ms, double wall);

/// The request metrics of a batch list: a request is one query of the list,
/// counted once at its median wall time, so partial rounds do not shift the
/// percentiles. req_per_s is the list's length over its summed medians.
void report_list_requests(Context& ctx, const std::vector<Item>& items);

/// clique.search_s / overhead / exact counters / kernel words per algorithm.
void report_search_layers(Context& ctx, const std::vector<Item>& items);

/// Traced-run ablations over the items marked `ablate`: workers=1
/// (parallel.speedup), scalar-pinned kernels (util.bitkernels.scalar_ratio,
/// answers cross-checked), and span recording off (bench.trace_overhead).
void run_ablations(Context& ctx, std::vector<Item>& items);

/// Runs every ablate item once with the kernels pinned to scalar (its answer
/// must match the host backend's); returns the seconds per algorithm.
std::array<double, kNumAlgorithms> run_on_scalar_kernels(Context& ctx, std::vector<Item>& items);

/// expected == actual, else a failed check naming `what`. Under
/// --inject-fault the first comparison's expected value is off by one.
bool check_equal(Context& ctx, std::uint64_t expected, std::uint64_t actual, const std::string& what);

/// Per-artifact calls outside the engine on each graph: edge-list text read,
/// exact/approximate degeneracy orders, orientation, edge communities,
/// community-degeneracy order (graph.*, order.*, triangle.* metrics).
void probe_artifacts(Context& ctx, const std::vector<const c3::Graph*>& graphs);

/// snapshot::write + Snapshot::open of `engine`; the loaded engine must
/// answer `check_query` like the original.
void probe_snapshot(Context& ctx, const c3::PreparedGraph& engine, const std::string& check_query);

/// The clique.aggregate_ratio.* metrics: vertexcounts, edgecounts, spectrum
/// and budgeted count, each over the plain count on the same engines.
inline const char* const kAggregateRatios[] = {
    "clique.aggregate_ratio.vertexcounts", "clique.aggregate_ratio.edgecounts",
    "clique.aggregate_ratio.spectrum", "clique.aggregate_ratio.budgeted_count"};

/// For the workloads without aggregating or bounded queries of their own:
/// `hasclique 14 budget=0.1` with c3List on T(52, 13), which has no 14-clique
/// (clique.budget_overrun_s, clique.truncated), and the aggregate ratios,
/// which only `aggregates` measures, reported as 0.
void probe_outside_aggregates(Context& ctx);

/// Writes the n, m and degeneracy of each graph into the report.
void report_graphs(Context& ctx, const std::vector<EdgeInput>& inputs);

}  // namespace perfbench
