// Tests for RunStats, the shared histogram-quantile interpolation, Table
// formatting, and the CLI parser.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>

#include "util/cli.hpp"
#include "util/run_stats.hpp"
#include "util/table.hpp"

namespace c3 {
namespace {

TEST(RunStats, KnownMeanAndStddev) {
  RunStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic dataset is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.rel_stddev(), std::sqrt(32.0 / 7.0) / 5.0, 1e-12);
}

TEST(RunStats, EmptyAndSingle) {
  RunStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  s.add(3.5);
  EXPECT_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 3.5);
  EXPECT_EQ(s.max(), 3.5);
}

// quantile_from_log_buckets: the interpolation obs::Histogram::quantile is
// built on. Buckets here use upper bound 2^i (lower(0) = 0), so expected
// values are easy to compute by hand.
namespace {
double pow2_bound(std::size_t i) { return std::exp2(static_cast<double>(i)); }
}  // namespace

TEST(QuantileFromLogBuckets, EmptyReturnsZero) {
  const std::uint64_t counts[4] = {0, 0, 0, 0};
  EXPECT_EQ(quantile_from_log_buckets(counts, 4, 0.5, pow2_bound), 0.0);
}

TEST(QuantileFromLogBuckets, SingleBucketInterpolatesLinearly) {
  // 4 observations, all in bucket 2 (range (2, 4]): ranks 1..4 spread
  // linearly across the bucket.
  const std::uint64_t counts[4] = {0, 0, 4, 0};
  EXPECT_NEAR(quantile_from_log_buckets(counts, 4, 0.25, pow2_bound), 2.5, 1e-12);
  EXPECT_NEAR(quantile_from_log_buckets(counts, 4, 0.5, pow2_bound), 3.0, 1e-12);
  EXPECT_NEAR(quantile_from_log_buckets(counts, 4, 1.0, pow2_bound), 4.0, 1e-12);
}

TEST(QuantileFromLogBuckets, WalksCumulativeCounts) {
  // 10 in (0,1], 10 in (2,4]: p50 is the last of the first bucket, p75 the
  // middle of the second, p100 its top.
  const std::uint64_t counts[4] = {10, 0, 10, 0};
  EXPECT_NEAR(quantile_from_log_buckets(counts, 4, 0.5, pow2_bound), 1.0, 1e-12);
  EXPECT_NEAR(quantile_from_log_buckets(counts, 4, 0.75, pow2_bound), 3.0, 1e-12);
  EXPECT_NEAR(quantile_from_log_buckets(counts, 4, 1.0, pow2_bound), 4.0, 1e-12);
}

TEST(QuantileFromLogBuckets, ClampsQAndHandlesExtremes) {
  const std::uint64_t counts[4] = {10, 0, 10, 0};
  // q <= 0 clamps to the first observation's bucket; q > 1 to the last.
  EXPECT_NEAR(quantile_from_log_buckets(counts, 4, -0.5, pow2_bound), 0.1, 1e-12);
  EXPECT_NEAR(quantile_from_log_buckets(counts, 4, 2.0, pow2_bound), 4.0, 1e-12);
}

TEST(QuantileFromLogBuckets, QuantileOrderingIsMonotone) {
  const std::uint64_t counts[6] = {3, 1, 4, 1, 5, 9};
  double prev = 0.0;
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
    const double v = quantile_from_log_buckets(counts, 6, q, pow2_bound);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

TEST(Table, AlignsAndRules) {
  Table t({"k", "time"});
  t.add_row({"6", "0.81"});
  t.add_row({"10", "28.1"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find(" k"), std::string::npos);
  EXPECT_NE(out.find("28.1"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, StrfmtAndCommas) {
  EXPECT_EQ(strfmt("%.2f", 3.14159), "3.14");
  EXPECT_EQ(strfmt("%d/%d", 3, 4), "3/4");
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(117185083), "117,185,083");
}

TEST(Cli, ParsesFlagsAndValues) {
  const char* argv[] = {"prog", "--n", "100", "--eps=0.5", "--verbose", "--name", "orkut"};
  CommandLine cli(7, argv);
  EXPECT_EQ(cli.get_int("n", 0), 100);
  EXPECT_DOUBLE_EQ(cli.get_double("eps", 0.0), 0.5);
  EXPECT_TRUE(cli.has_flag("verbose"));
  EXPECT_FALSE(cli.has_flag("quiet"));
  EXPECT_EQ(cli.get_string("name", ""), "orkut");
  EXPECT_EQ(cli.get_int("missing", -7), -7);
}

TEST(Cli, EmptyArgvUsesFallbacks) {
  const char* argv[] = {"prog"};
  CommandLine cli(1, argv);
  EXPECT_EQ(cli.get_int("n", 42), 42);
  EXPECT_FALSE(cli.has_flag("x"));
}

TEST(Cli, ParsePortAcceptsExactlyDecimalZeroTo65535) {
  EXPECT_EQ(parse_port("0"), std::uint16_t{0});
  EXPECT_EQ(parse_port("7433"), std::uint16_t{7433});
  EXPECT_EQ(parse_port("65535"), std::uint16_t{65535});
  for (const char* bad : {"", "65536", "70000", "99999999999", "-1", "+1", " 1", "1 ", "80x",
                          "abc", "0x50"}) {
    EXPECT_FALSE(parse_port(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(Cli, ParseNumberReadsTheWholeValue) {
  EXPECT_EQ(parse_number<long long>("-12"), -12);
  EXPECT_EQ(parse_number<double>("0.25"), 0.25);
  for (const char* bad : {"", "abc", "12x", " 1", "+1", "1.5", "99999999999999999999"}) {
    EXPECT_FALSE(parse_number<long long>(bad).has_value()) << "'" << bad << "'";
  }
  EXPECT_FALSE(parse_number<double>("0.5s").has_value());
}

TEST(CliDeathTest, MalformedNumbersAreRefusedWithExitTwo) {
  const char* argv[] = {"/usr/bin/prog", "--k", "abc", "--eps=x"};
  const CommandLine cli(4, argv);
  EXPECT_EXIT((void)cli.get_int("k", 5), ::testing::ExitedWithCode(2), "prog: bad --k 'abc'");
  EXPECT_EXIT((void)cli.get_double("eps", 0.5), ::testing::ExitedWithCode(2),
              "prog: bad --eps 'x'");
  EXPECT_EQ(cli.get_int("missing", 7), 7);
}

}  // namespace
}  // namespace c3
