// The stop contract for searches that emit nothing: a budget or a cancel
// token must end a query promptly even when the search never reaches a
// callback. turan_graph(60, 15) has clique number 15, so every 16-clique
// probe is fruitless and, unbounded, runs for seconds; a 10-clique count
// runs for seconds too. Each case must return within twice its limit plus
// a fixed slack, marked truncated.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "clique/api.hpp"
#include "clique/engine.hpp"
#include "clique/query.hpp"
#include "graph/gen/generators.hpp"
#include "util/timer.hpp"

namespace c3 {
namespace {

const Algorithm kProductionAlgorithms[] = {Algorithm::C3List, Algorithm::C3ListCD,
                                           Algorithm::Hybrid, Algorithm::KCList,
                                           Algorithm::ArbCount};

constexpr double kSlackSeconds = 0.05;

/// A prepared engine over the Turán graph, so the timed queries measure the
/// search alone.
class BoundedStopTest : public ::testing::TestWithParam<Algorithm> {
 protected:
  BoundedStopTest() : engine_(graph_, options()) { engine_.prepare(); }

  static CliqueOptions options() {
    CliqueOptions opts;
    opts.algorithm = GetParam();
    return opts;
  }

  const Graph graph_ = turan_graph(60, 15);
  const PreparedGraph engine_;
};

TEST_P(BoundedStopTest, BudgetCutsFruitlessHasClique) {
  const Query q = parse_query("hasclique 16 budget=0.2");
  const WallTimer timer;
  const Answer a = engine_.run(q);
  const double elapsed = timer.seconds();
  EXPECT_LE(elapsed, 2 * 0.2 + kSlackSeconds);
  EXPECT_FALSE(a.found);
  EXPECT_TRUE(a.truncated);
}

TEST_P(BoundedStopTest, CancelTokenCutsCount) {
  Query q = parse_query("count 10");
  q.opts.cancel = std::make_shared<std::atomic<bool>>(false);
  const WallTimer timer;
  std::thread canceller([token = q.opts.cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    token->store(true, std::memory_order_relaxed);
  });
  const Answer a = engine_.run(q);
  const double elapsed = timer.seconds();
  canceller.join();
  EXPECT_LE(elapsed, 2 * 0.1 + kSlackSeconds);
  EXPECT_TRUE(a.truncated);
}

TEST_P(BoundedStopTest, BudgetBoundsMaxCliqueWithAVerifiedLowerBound) {
  const Query q = parse_query("maxclique budget=0.2");
  const WallTimer timer;
  const Answer a = engine_.run(q);
  const double elapsed = timer.seconds();
  EXPECT_LE(elapsed, 2 * 0.2 + kSlackSeconds);
  EXPECT_TRUE(a.truncated);
  // omega is a proven lower bound, so at most the true clique number 15:
  // either the start bound 2 (an edge) or the size of a clique some probe
  // found. Either way the witness shows it, even when the first probe is cut.
  EXPECT_GE(a.omega, 2u);
  EXPECT_LE(a.omega, 15u);
  ASSERT_EQ(a.witness.size(), static_cast<std::size_t>(a.omega));
  for (std::size_t i = 0; i < a.witness.size(); ++i) {
    for (std::size_t j = i + 1; j < a.witness.size(); ++j) {
      EXPECT_TRUE(graph_.has_edge(a.witness[i], a.witness[j]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, BoundedStopTest, ::testing::ValuesIn(kProductionAlgorithms),
                         [](const ::testing::TestParamInfo<Algorithm>& info) {
                           // Test names allow only letters, digits and '_'.
                           std::string name = algorithm_name(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

}  // namespace
}  // namespace c3
