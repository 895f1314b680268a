// LineFrontEnd: the wire protocol without sockets. Admin commands, request
// routing, one-line errors for every failure class, answer-cache integration
// (hits counted, truncated answers never cached), and per-graph admission
// keeping concurrent executions at or below the configured limit.
#include "net/frontend.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "clique/answer_cache.hpp"
#include "clique/engine.hpp"
#include "clique/query.hpp"
#include "clique/service.hpp"
#include "graph/builder.hpp"
#include "graph/gen/generators.hpp"

namespace c3::net {
namespace {

/// Registers the two-graph catalog most tests share (CliqueService itself
/// is pinned in place — neither copyable nor movable).
void add_two_graphs(CliqueService& service) {
  service.add_graph("social", social_like(220, 1700, 0.45, 23));
  service.add_graph("er", erdos_renyi(120, 900, 31));
}

TEST(FrontEnd, AdminCommandsAndSilentLines) {
  CliqueService service;
  add_two_graphs(service);
  LineFrontEnd fe(service, nullptr);

  EXPECT_EQ(fe.process("ping").line, "pong");
  EXPECT_EQ(fe.process("catalog").line, "catalog: social er");

  const auto quit = fe.process("quit");
  EXPECT_EQ(quit.line, "bye");
  EXPECT_TRUE(quit.close);
  EXPECT_TRUE(fe.process("bye").close);

  // Blank and comment lines produce no response at all.
  EXPECT_FALSE(fe.process("").respond);
  EXPECT_FALSE(fe.process("   \t").respond);
  EXPECT_FALSE(fe.process("# a comment line").respond);

  const auto stats = fe.process("stats");
  EXPECT_EQ(stats.line.rfind("stats: requests=0 ", 0), 0u) << stats.line;
  EXPECT_NE(stats.line.find("graphs=2"), std::string::npos) << stats.line;
}

TEST(FrontEnd, AnswersMatchDirectServiceRuns) {
  CliqueService service;
  add_two_graphs(service);
  LineFrontEnd fe(service, nullptr);

  for (const char* line : {"social count 4", "er hasclique 3", "social spectrum",
                           "er maxclique witness=0", "social count 4 workers=2"}) {
    const std::string text(line);
    const std::size_t space = text.find(' ');
    const Answer direct =
        service.run(text.substr(0, space), parse_query(text.substr(space + 1)));
    EXPECT_EQ(fe.process(line).line, format_answer(direct)) << line;
  }
  const FrontEndStats s = fe.stats();
  EXPECT_EQ(s.requests, 5u);
  EXPECT_EQ(s.answered, 5u);
  EXPECT_EQ(s.errors, 0u);
  EXPECT_EQ(s.cache_hits, 0u);
}

TEST(FrontEnd, EveryFailureIsOneErrorLine) {
  CliqueService service;
  add_two_graphs(service);
  LineFrontEnd fe(service, nullptr);

  // Unknown graph, parse error, bare unknown token — each one line, each
  // counted, none fatal.
  const std::string unknown = fe.process("nosuch count 3").line;
  EXPECT_EQ(unknown.rfind("error: ", 0), 0u) << unknown;
  EXPECT_NE(unknown.find("nosuch"), std::string::npos) << unknown;

  const std::string parse = fe.process("social cuont 3").line;
  EXPECT_EQ(parse.rfind("error: ", 0), 0u) << parse;
  EXPECT_NE(parse.find("cuont"), std::string::npos) << parse;

  const std::string bare = fe.process("social").line;
  EXPECT_EQ(bare.rfind("error: ", 0), 0u) << bare;

  EXPECT_EQ(fe.stats().errors, 3u);
  EXPECT_EQ(fe.stats().answered, 0u);

  // The front end still answers afterwards.
  EXPECT_EQ(fe.process("ping").line, "pong");
  EXPECT_EQ(fe.process("social hasclique 2").line.rfind("hasclique 2: ", 0), 0u);
}

TEST(FrontEnd, OverflowingSpectrumIsOneErrorLine) {
  // Disjoint K_320 and K_300: C(320, 11) alone exceeds 64 bits.
  EdgeList edges;
  for (const auto& [first, size] : {std::pair{node_t{0}, node_t{320}},
                                    std::pair{node_t{320}, node_t{300}}}) {
    for (node_t i = 0; i < size; ++i) {
      for (node_t j = i + 1; j < size; ++j) edges.push_back({first + i, first + j});
    }
  }
  CliqueService service;
  service.add_graph("blocks", build_graph(edges, 620));
  LineFrontEnd fe(service, nullptr);

  EXPECT_EQ(fe.process("blocks spectrum 10").line.rfind("spectrum: omega 10, counts ", 0), 0u);
  const std::string refused = fe.process("blocks spectrum").line;
  EXPECT_EQ(refused.rfind("error: ", 0), 0u) << refused;
  EXPECT_NE(refused.find("11-cliques overflows"), std::string::npos) << refused;
  EXPECT_EQ(fe.stats().errors, 1u);
}

TEST(FrontEnd, CacheHitsCountAndSkipExecution) {
  CliqueService service;
  add_two_graphs(service);
  AnswerCache cache(64);
  LineFrontEnd fe(service, &cache);

  const std::string first = fe.process("social count 4").line;
  EXPECT_EQ(fe.stats().cache_hits, 0u);
  // Different execution options, same question — must hit.
  EXPECT_EQ(fe.process("social count 4 workers=2").line, first);
  EXPECT_EQ(fe.process("social count 4 budget=100").line, first);
  const FrontEndStats s = fe.stats();
  EXPECT_EQ(s.cache_hits, 2u);
  EXPECT_EQ(s.answered, 3u);
  EXPECT_EQ(s.cache.hits, 2u);
  EXPECT_EQ(s.cache.misses, 1u);
  EXPECT_EQ(s.cache.insertions, 1u);
}

TEST(FrontEnd, TruncatedAnswersAreNeverServedFromCache) {
  CliqueService service;
  service.add_graph("g", social_like(200, 1600, 0.5, 3));
  AnswerCache cache(64);
  LineFrontEnd fe(service, &cache);

  // `list 3 limit=1` is deterministically truncated (the graph has many
  // 3-cliques); asking twice must execute twice — zero cache hits, zero
  // cache entries.
  const std::string a = fe.process("g list 3 limit=1").line;
  EXPECT_NE(a.find("[truncated]"), std::string::npos) << a;
  const std::string b = fe.process("g list 3 limit=1").line;
  EXPECT_NE(b.find("[truncated]"), std::string::npos) << b;
  EXPECT_EQ(fe.stats().cache_hits, 0u);
  EXPECT_EQ(fe.stats().cache.insertions, 0u);
  EXPECT_EQ(cache.size(), 0u);

  // A complete listing of the same k does cache.
  const std::string full = fe.process("g list 3").line;
  EXPECT_EQ(full.find("[truncated]"), std::string::npos) << full;
  EXPECT_EQ(fe.process("g list 3").line, full);
  EXPECT_EQ(fe.stats().cache_hits, 1u);
}

TEST(FrontEnd, CountServedCrossKFromCachedSpectrum) {
  CliqueService service;
  add_two_graphs(service);
  AnswerCache cache(64);
  LineFrontEnd fe(service, &cache);

  // One spectrum run memoizes every per-k count; the follow-up counts are
  // answered from the cache without touching the engine, and show up in the
  // dedicated cross-k counter (a subset of cache_hits).
  const std::string spectrum = fe.process("social spectrum").line;
  ASSERT_EQ(spectrum.rfind("spectrum:", 0), 0u) << spectrum;

  const Answer direct = service.run("social", parse_query("count 3"));
  EXPECT_EQ(fe.process("social count 3").line, format_answer(direct));
  // Far past omega: the complete spectrum proves zero.
  const std::string none = fe.process("social count 99").line;
  EXPECT_NE(none.find("0 cliques"), std::string::npos) << none;

  const FrontEndStats s = fe.stats();
  EXPECT_EQ(s.cache_hits, 2u);
  EXPECT_EQ(s.cache.cross_k_hits, 2u);
  EXPECT_EQ(s.cache.misses, 1u);  // only the spectrum itself missed
  EXPECT_EQ(s.answered, 3u);

  // The stats admin line exposes the counter for operators.
  EXPECT_NE(fe.process("stats").line.find("cache_cross_k_hits=2"), std::string::npos);
}

TEST(FrontEnd, AdmissionCapsConcurrentExecutionsPerGraph) {
  CliqueService service;
  service.add_graph("g", social_like(300, 2600, 0.5, 11));
  FrontEndOptions opts;
  opts.max_inflight_per_graph = 2;
  LineFrontEnd fe(service, nullptr, opts);

  // 8 threads hammer the same graph with distinct (uncacheable-identical)
  // queries; the gate must keep peak concurrent executions at <= 2 while
  // every request still completes with a real answer.
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kThreads);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string line = "g count " + std::to_string(3 + t % 3);
      for (int rep = 0; rep < 3; ++rep) {
        const auto reply = fe.process(line);
        if (reply.line.rfind("count ", 0) != 0) failures[t] = reply.line;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");

  const FrontEndStats s = fe.stats();
  EXPECT_EQ(s.requests, static_cast<std::uint64_t>(kThreads) * 3);
  EXPECT_EQ(s.answered, static_cast<std::uint64_t>(kThreads) * 3);
  EXPECT_GE(s.peak_inflight, 1);
  EXPECT_LE(s.peak_inflight, 2) << "admission let more than the limit through";
}

TEST(FrontEnd, FreedSlotOnOneGraphNeverStrandsAnothersWaiter) {
  // Regression: all gates once shared a single condition_variable with
  // notify_one — freeing a slot on graph A could wake a waiter for graph B
  // (whose predicate was still false), which re-slept and swallowed the
  // wakeup while A's own waiter stayed blocked forever. Two saturated
  // gates with interleaved completions make that schedule likely; the pass
  // condition is simply that every request completes instead of the
  // process hanging into the ctest timeout.
  CliqueService service;
  add_two_graphs(service);
  FrontEndOptions opts;
  opts.max_inflight_per_graph = 1;
  LineFrontEnd fe(service, nullptr, opts);

  constexpr int kThreads = 8;  // 4 per graph, all contending for 1 slot each
  constexpr int kReps = 8;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kThreads);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string id = (t % 2 == 0) ? "social" : "er";
      for (int rep = 0; rep < kReps; ++rep) {
        const auto reply = fe.process(id + " count " + std::to_string(3 + (t + rep) % 3));
        if (reply.line.rfind("count ", 0) != 0) failures[t] = reply.line;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");

  const FrontEndStats s = fe.stats();
  EXPECT_EQ(s.answered, static_cast<std::uint64_t>(kThreads) * kReps);
  EXPECT_LE(s.peak_inflight, 1) << "a gate admitted past its cap";
}

TEST(FrontEnd, StatsSuffixHookAppends) {
  CliqueService service;
  add_two_graphs(service);
  LineFrontEnd fe(service, nullptr);
  fe.set_stats_suffix_source([] { return std::string("connections=7"); });
  const std::string line = fe.process("stats").line;
  EXPECT_NE(line.find(" connections=7"), std::string::npos) << line;
}

TEST(FrontEnd, StatsSuffixNewlinesAreSanitized) {
  // Regression: the suffix used to be appended verbatim, so a multi-line
  // suffix source smuggled extra lines into the one-answer-per-line
  // protocol (the next read parsed half a stats line as a request).
  CliqueService service;
  add_two_graphs(service);
  LineFrontEnd fe(service, nullptr);
  fe.set_stats_suffix_source([] { return std::string("connections=7\nuptime=3\r\nbad"); });
  const std::string line = fe.process("stats").line;
  EXPECT_EQ(line.find('\n'), std::string::npos) << line;
  EXPECT_EQ(line.find('\r'), std::string::npos) << line;
  // The suffix content survives, folded onto the single line.
  EXPECT_NE(line.find("connections=7 uptime=3"), std::string::npos) << line;
  EXPECT_NE(line.find("bad"), std::string::npos) << line;
}

TEST(FrontEnd, MetricsWordReturnsExposition) {
  CliqueService service;
  add_two_graphs(service);
  AnswerCache cache(64);
  LineFrontEnd fe(service, &cache);

  // Drive one miss and one hit so the serving counters are non-trivial.
  ASSERT_EQ(fe.process("social count 4").line.rfind("count 4: ", 0), 0u);
  ASSERT_EQ(fe.process("social count 4").line.rfind("count 4: ", 0), 0u);

  const auto reply = fe.process("metrics");
  EXPECT_TRUE(reply.respond);
  EXPECT_FALSE(reply.close);
  const std::string& text = reply.line;
  // Exposition ends with the "# EOF" terminator; the transport appends the
  // final newline, so the reply itself must not carry a trailing one.
  ASSERT_GE(text.size(), 5u);
  EXPECT_EQ(text.substr(text.size() - 5), "# EOF") << "...'" << text.substr(text.size() - 16) << "'";
  // Serving counters, catalog and cache mirrors, and (when telemetry is on)
  // the per-stage latency summaries all land in one exposition.
  EXPECT_NE(text.find("# TYPE c3_requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("c3_requests_total{instance="), std::string::npos);
  EXPECT_NE(text.find("c3_catalog_graphs 2"), std::string::npos);
  EXPECT_NE(text.find("c3_answer_cache_hits{instance="), std::string::npos);
  EXPECT_NE(text.find("c3_answer_cache_misses{instance="), std::string::npos);
  EXPECT_NE(text.find("c3_peak_inflight{instance="), std::string::npos);
  if (obs::enabled()) {
    EXPECT_NE(text.find("# TYPE c3_stage_seconds summary"), std::string::npos);
    EXPECT_NE(text.find("c3_stage_seconds{stage=\"search\",quantile=\"0.5\"}"),
              std::string::npos);
    EXPECT_NE(text.find("c3_queries_total{kind=\"count\"}"), std::string::npos);
  }
}

TEST(FrontEnd, ConcurrentMixedTrafficStatsReconcile) {
  // FrontEndStats accounting under concurrent mixed traffic: valid queries
  // (mostly cache hits after warmup), guaranteed errors, and admin words all
  // interleaved. The totals must reconcile exactly — every non-admin request
  // is either answered or an error, the front end's hit counter agrees with
  // the sharded AnswerCache counters, and admission never exceeds its cap.
  CliqueService service;
  add_two_graphs(service);
  AnswerCache cache(256);
  FrontEndOptions opts;
  opts.max_inflight_per_graph = 2;
  LineFrontEnd fe(service, &cache, opts);

  constexpr int kThreads = 8;
  constexpr int kReps = 12;
  std::atomic<std::uint64_t> sent_valid{0};
  std::atomic<std::uint64_t> sent_errors{0};
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < kReps; ++rep) {
        switch ((t + rep) % 5) {
          case 0:
          case 1: {  // valid query from a tiny set — repeats become hits
            const std::string id = (t % 2 == 0) ? "social" : "er";
            const auto reply = fe.process(id + " count " + std::to_string(3 + rep % 2));
            if (reply.line.rfind("count ", 0) != 0) failures[t] = reply.line;
            sent_valid.fetch_add(1);
            break;
          }
          case 2: {  // unknown graph — always an error
            const auto reply = fe.process("nosuch count 3");
            if (reply.line.rfind("error: ", 0) != 0) failures[t] = reply.line;
            sent_errors.fetch_add(1);
            break;
          }
          case 3: {  // parse error — always an error
            const auto reply = fe.process("social cuont 3");
            if (reply.line.rfind("error: ", 0) != 0) failures[t] = reply.line;
            sent_errors.fetch_add(1);
            break;
          }
          case 4: {  // admin words — must not count as requests
            if (fe.process("ping").line != "pong") failures[t] = "bad ping";
            if (fe.process("stats").line.rfind("stats: ", 0) != 0) failures[t] = "bad stats";
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");

  const FrontEndStats s = fe.stats();
  const AnswerCacheStats c = cache.stats();
  EXPECT_EQ(s.requests, sent_valid.load() + sent_errors.load());
  EXPECT_EQ(s.answered, sent_valid.load());
  EXPECT_EQ(s.errors, sent_errors.load());
  EXPECT_EQ(s.requests, s.answered + s.errors);
  // The front end's hit counter and the per-shard cache counters agree, and
  // every valid request did exactly one lookup: hits + misses = answered.
  EXPECT_EQ(s.cache_hits, c.hits);
  EXPECT_EQ(c.hits + c.misses, sent_valid.load());
  // 4 distinct (graph, k) questions exist; every miss beyond the first per
  // question raced a concurrent miss, so insertions <= misses and the cache
  // holds at most the distinct questions.
  EXPECT_LE(c.insertions, c.misses);
  EXPECT_GE(c.misses, 4u);
  EXPECT_LE(c.entries, 4u);
  EXPECT_GE(s.peak_inflight, 1);
  EXPECT_LE(s.peak_inflight, 2) << "admission let more than the cap through";
}

}  // namespace
}  // namespace c3::net
