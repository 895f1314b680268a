#include "serve.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "engines.hpp"
#include "inputs.hpp"

namespace perfbench {
namespace {

/// "<graph> <query>" -> the direct CliqueService::run answer, timed.
std::pair<std::string, double> direct_answer(Context& ctx, const c3::CliqueService& service,
                                             const std::string& line) {
  const std::size_t space = line.find(' ');
  const Tracer::Span span(ctx.tracer, "clique.service.run", next_request_id());
  const c3::Answer a = service.run(line.substr(0, space), c3::parse_query(line.substr(space + 1)));
  return {c3::format_answer(a), span.seconds() * 1e3};
}

/// Largest p99 of the c3_admission_wait_seconds summaries in a metrics scrape.
double admission_wait_p99_ms(const std::string& exposition) {
  double worst = 0.0;
  std::istringstream in(exposition);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("c3_admission_wait_seconds", 0) != 0) continue;
    if (line.find("quantile=\"0.99\"") == std::string::npos) continue;
    worst = std::max(worst, std::stod(line.substr(line.rfind(' ') + 1)) * 1e3);
  }
  return worst;
}

struct Miss {
  std::string line;
  std::string reply;
  double ms = 0.0;
};

}  // namespace

ServeOutcome serve_requests(Context& ctx, const c3::CliqueService& service, const ServePlan& plan) {
  std::map<std::string, std::string> expected;
  for (const std::string& line : plan.hot) expected[line] = direct_answer(ctx, service, line).first;

  c3::net::CliqueServer server(service);
  server.start();
  const auto port = static_cast<std::uint16_t>(server.port());
  {
    c3::net::LineClient client("127.0.0.1", port);
    for (const std::string& line : plan.hot) {
      ctx.gate.attempt();
      const std::string reply = client.request(line);
      ctx.gate.check(reply == expected.at(line), "warm-up '" + line + "' answered '" + reply + "'");
    }
  }
  const c3::net::ServerStats before = server.stats();

  std::set<std::string> pool;
  Rng pool_rng(derive_seed(ctx.opts.seed, std::string(plan.seed_name) + ".misses"));
  while (pool.size() < plan.miss_pool) {
    const auto limit = std::lround(10.0 * std::pow(plan.max_limit / 10.0, pool_rng.unit()));
    pool.insert(plan.ids[pool_rng.below(plan.ids.size())] + " list " +
                std::to_string(plan.miss_ks[pool_rng.below(plan.miss_ks.size())]) +
                " limit=" + std::to_string(limit) + " workers=1");
  }
  const std::vector<std::string> miss_lines(pool.begin(), pool.end());

  std::mutex mutex;  // guards the vectors below
  std::vector<double> all_ms, hit_ms;
  std::vector<Miss> misses;
  const double start = now_seconds();
  const double deadline = start + plan.seconds;
  std::vector<std::thread> clients;
  for (int c = 0; c < plan.clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(derive_seed(ctx.opts.seed, std::string(plan.seed_name) + ".client" + std::to_string(c)));
      std::vector<double> my_all, my_hit;
      std::vector<Miss> my_misses;
      try {
        c3::net::LineClient client("127.0.0.1", port);
        for (std::size_t i = 0;; ++i) {
          if (plan.seconds > 0.0 ? now_seconds() >= deadline : i >= plan.requests) break;
          const bool hot = rng.unit() < plan.hot_share;
          std::string line = hot ? plan.hot[rng.below(plan.hot.size())]
                                 : miss_lines[rng.below(miss_lines.size())];
          std::string reply;
          double ms = 0.0;
          {
            const Tracer::Span span(ctx.tracer, "net.request", next_request_id());
            reply = client.request(line);
            ms = span.seconds() * 1e3;
          }
          my_all.push_back(ms);
          if (hot) {
            my_hit.push_back(ms);
            ctx.gate.attempt();
            ctx.gate.check(reply == expected.at(line), "'" + line + "' answered '" + reply + "'");
          } else {
            my_misses.push_back({std::move(line), std::move(reply), ms});
          }
        }
      } catch (const std::exception& e) {
        ctx.gate.attempt();
        ctx.gate.check(false, std::string("serve client: ") + e.what());
      }
      const std::lock_guard lock(mutex);
      all_ms.insert(all_ms.end(), my_all.begin(), my_all.end());
      hit_ms.insert(hit_ms.end(), my_hit.begin(), my_hit.end());
      for (Miss& m : my_misses) misses.push_back(std::move(m));
    });
  }
  for (std::thread& t : clients) t.join();
  const double wall = now_seconds() - start;

  const c3::net::ServerStats after = server.stats();
  double admission_p99 = 0.0;
  {
    c3::net::LineClient admin("127.0.0.1", port, 10.0, 1 << 24);
    admission_p99 = admission_wait_p99_ms(admin.scrape_metrics());
  }
  server.stop();

  // Every miss must answer like a direct run of the same request; the direct
  // runs are the service-layer latencies of the miss path.
  std::map<std::string, std::pair<std::string, double>> direct;
  std::vector<double> service_ms, wire_overhead_ms;
  for (const Miss& m : misses) {
    auto it = direct.find(m.line);
    if (it == direct.end()) {
      it = direct.emplace(m.line, direct_answer(ctx, service, m.line)).first;
      service_ms.push_back(it->second.second);
      wire_overhead_ms.push_back(m.ms - it->second.second);
    }
    ctx.gate.attempt();
    ctx.gate.check(m.reply == it->second.first,
                   "'" + m.line + "' answered '" + m.reply + "', direct '" + it->second.first + "'");
  }

  const std::uint64_t hits = after.frontend.cache.hits - before.frontend.cache.hits;
  const std::uint64_t lookups = hits + after.frontend.cache.misses - before.frontend.cache.misses;
  if (ctx.opts.trace) {
    ctx.metrics.set("clique.cache_hit_rate",
                    lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0,
                    "ratio");
    ctx.metrics.set("net.hit_ms.p50", median(hit_ms), "ms");
    ctx.metrics.set("net.wire_overhead_ms.p50", median(wire_overhead_ms), "ms");
    ctx.metrics.set("net.admission_wait_ms.p99", admission_p99, "ms");
    ctx.metrics.set("clique.service_ms.p99", percentile(service_ms, 0.99), "ms");
  }
  ctx.report.add_number(std::string(plan.seed_name) + ".requests", static_cast<double>(all_ms.size()));
  ctx.report.add_number(std::string(plan.seed_name) + ".misses", static_cast<double>(misses.size()));
  return {std::move(all_ms), wall};
}

void probe_net(Context& ctx, const c3::Graph& graph) {
  c3::CliqueService service;
  service.add_graph("g", c3::Graph(graph));
  service.prepare("g");
  ServePlan plan;
  plan.hot = {"g count 3", "g hasclique 5", "g maxclique witness=0"};
  plan.ids = {"g"};
  plan.miss_ks = {4};
  plan.max_limit = 1e3;
  plan.miss_pool = 32;
  plan.requests = 200;
  plan.seed_name = "net_probe";
  (void)serve_requests(ctx, service, plan);
}

// The serving path: loopback server, answer cache, snapshot-backed catalog.
void run_serve_mix(Context& ctx) {
  const std::vector<EdgeInput> inputs = {orkut_like(ctx.opts.seed, ctx.opts.tiny),
                                         dblp_like(ctx.opts.seed, ctx.opts.tiny)};
  const std::vector<std::string> ids = {"orkut", "dblp"};
  report_graphs(ctx, inputs);
  const std::filesystem::path snap_path = ctx.opts.out_dir / "dblp.c3snap";

  // Set-up: the per-algorithm engines the hot set is replayed on, and the
  // service (orkut in memory, dblp from a snapshot of its c3List engine).
  EngineSet direct;
  std::unique_ptr<c3::CliqueService> service;
  std::vector<double> build_s, write_s, open_s;
  std::vector<std::array<double, kNumAlgorithms>> prepare_s;
  timed_setup(
      ctx, kSetupReps,
      [&] {
        service.reset();
        direct = EngineSet{};
      },
      [&] {
        double build = 0.0;
        std::array<double, kNumAlgorithms> prepare{};
        direct = build_engines(ctx, inputs, build, prepare);
        build_s.push_back(build);
        prepare_s.push_back(prepare);
        {
          const Tracer::Span span(ctx.tracer, "snapshot.write");
          c3::snapshot::write(snap_path, *direct.engines[1][0]);
          write_s.push_back(span.seconds());
        }
        service = std::make_unique<c3::CliqueService>();
        service->add_graph(ids[0], c3::Graph(*direct.graphs[0]));
        service->add_snapshot(ids[1], snap_path);
        service->prepare(ids[0]);
        const Tracer::Span span(ctx.tracer, "snapshot.open");
        service->prepare(ids[1]);
        open_s.push_back(span.seconds());
      });
  report_setup_layers(ctx, build_s, prepare_s);

  std::vector<std::string> hot_queries;
  for (int k = 5; k <= 8; ++k) hot_queries.push_back("count " + std::to_string(k));
  for (const char* q : {"hasclique 8", "hasclique 12", "spectrum 6", "maxclique witness=0"}) {
    hot_queries.emplace_back(q);
  }
  ServePlan plan;
  for (const std::string& id : ids) {
    for (const std::string& q : hot_queries) plan.hot.push_back(id + " " + q);
  }
  plan.ids = ids;
  plan.miss_ks = {5, 6, 7};
  plan.max_limit = ctx.opts.tiny ? 1e3 : 1e5;
  plan.clients = static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
  plan.seconds = ctx.opts.seconds;
  plan.seed_name = "serve_mix";

  // The hot set's cold cost on every algorithm (query_s.<alg>); each answer
  // must match the served engine's.
  std::vector<Item> items;
  for (std::size_t g = 0; g < ids.size(); ++g) {
    for (const std::string& q : hot_queries) {
      const std::string expected = direct_answer(ctx, *service, ids[g] + " " + q).first;
      for (int a = 0; a < kNumAlgorithms; ++a) {
        Item item = make_item(a, *direct.engines[g][static_cast<std::size_t>(a)], ids[g], q);
        item.exhaustive = item.query.kind == c3::QueryKind::Count || item.query.kind == c3::QueryKind::Spectrum;
        item.ablate = g == 0 && item.query.kind == c3::QueryKind::Count;
        run_item(ctx, item, item.query, true);
        ctx.gate.check(item.answer_text == expected,
                       item.label + " answered '" + item.answer_text + "', served '" + expected + "'");
        items.push_back(std::move(item));
      }
    }
  }
  report_query_s(ctx, items);

  const ServeOutcome served = serve_requests(ctx, *service, plan);
  report_requests(ctx, served.all_ms, served.wall);

  if (ctx.opts.trace) {
    ctx.metrics.set("snapshot.write_s", median(write_s), "s");
    ctx.metrics.set("snapshot.open_s", median(open_s), "s");
    ctx.metrics.set("snapshot.bytes", static_cast<double>(std::filesystem::file_size(snap_path)), "bytes");
    report_search_layers(ctx, items);
    run_ablations(ctx, items);
    probe_artifacts(ctx, {direct.graphs[0].get(), direct.graphs[1].get()});
    probe_outside_aggregates(ctx);
  }
  service.reset();
  std::filesystem::remove(snap_path);
}

}  // namespace perfbench
