// Unit tests for src/common: RNG determinism and distributions, statistics,
// table rendering, contract checking, the shared spec-grammar helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/ascii_chart.hpp"
#include "common/check.hpp"
#include "common/grammar.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace ssm {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.nextU64() == b.nextU64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, CopyPreservesStream) {
  Rng a(7);
  a.nextU64();
  Rng b = a;  // snapshot
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, ForkIsDecorrelated) {
  Rng root(9);
  Rng c0 = root.fork(0);
  Rng c1 = root.fork(1);
  int equal = 0;
  for (int i = 0; i < 200; ++i)
    if (c0.nextU64() == c1.nextU64()) ++equal;
  EXPECT_EQ(equal, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.nextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(4);
  for (std::uint64_t bound : {1ULL, 2ULL, 6ULL, 1000ULL}) {
    for (int i = 0; i < 2000; ++i) EXPECT_LT(r.nextBelow(bound), bound);
  }
}

TEST(Rng, NextBelowZeroBoundReturnsZero) {
  Rng r(4);
  EXPECT_EQ(r.nextBelow(0), 0u);
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng r(5);
  constexpr int kBuckets = 6;
  constexpr int kDraws = 60000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[r.nextBelow(kBuckets)];
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.nextBernoulli(0.0));
    EXPECT_TRUE(r.nextBernoulli(1.0));
    EXPECT_FALSE(r.nextBernoulli(-3.0));
    EXPECT_TRUE(r.nextBernoulli(2.0));
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng r(7);
  int hits = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) hits += r.nextBernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(Rng, GaussianMoments) {
  Rng r(8);
  RunningStat s;
  for (int i = 0; i < 50000; ++i) s.add(r.nextGaussian(2.0, 3.0));
  EXPECT_NEAR(s.mean(), 2.0, 0.1);
  EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng r(9);
  RunningStat s;
  for (int i = 0; i < 50000; ++i) s.add(r.nextExponential(0.5));
  EXPECT_NEAR(s.mean(), 2.0, 0.1);
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng r(10);
  const double w[] = {1.0, 3.0, 0.0, 6.0};
  int counts[4] = {};
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) ++counts[r.nextCategorical(w)];
  EXPECT_NEAR(counts[0] / double(kDraws), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / double(kDraws), 0.3, 0.015);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / double(kDraws), 0.6, 0.015);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(11);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto orig = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.variance(), 1.25);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(RunningStat, MergeMatchesCombined) {
  RunningStat a;
  RunningStat b;
  RunningStat all;
  Rng r(12);
  for (int i = 0; i < 100; ++i) {
    const double x = r.nextGaussian();
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a;
  a.add(5.0);
  RunningStat empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(Stats, MeanAndGeomean) {
  const std::vector<double> xs{1.0, 2.0, 4.0};
  EXPECT_NEAR(mean(xs), 7.0 / 3.0, 1e-12);
  EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, GeomeanClampsNonPositive) {
  const std::vector<double> xs{0.0, 1.0};
  EXPECT_GT(geomean(xs), 0.0);
}

TEST(Stats, Percentile) {
  std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.0);
}

TEST(Stats, MapePercent) {
  const std::vector<double> actual{100.0, 200.0};
  const std::vector<double> pred{110.0, 190.0};
  EXPECT_NEAR(mapePercent(actual, pred), 7.5, 1e-12);
}

TEST(Stats, MapeLengthMismatchThrows) {
  const std::vector<double> a{1.0};
  const std::vector<double> p{1.0, 2.0};
  EXPECT_THROW(static_cast<void>(mapePercent(a, p)), ContractError);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> xs{1, 2, 3, 4};
  const std::vector<double> ys{2, 4, 6, 8};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  const std::vector<double> neg{8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantIsZero) {
  const std::vector<double> xs{1, 1, 1};
  const std::vector<double> ys{2, 4, 6};
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
}

TEST(Standardizer, NormalizesToZeroMeanUnitVar) {
  // Two features over 4 rows.
  std::vector<double> rows{1, 10, 2, 20, 3, 30, 4, 40};
  const auto s = Standardizer::fit(rows, 2);
  RunningStat f0;
  RunningStat f1;
  for (int r = 0; r < 4; ++r) {
    std::vector<double> row{rows[2 * r], rows[2 * r + 1]};
    s.apply(row);
    f0.add(row[0]);
    f1.add(row[1]);
  }
  EXPECT_NEAR(f0.mean(), 0.0, 1e-12);
  EXPECT_NEAR(f1.mean(), 0.0, 1e-12);
  EXPECT_NEAR(f0.stddev(), 1.0, 1e-12);
  EXPECT_NEAR(f1.stddev(), 1.0, 1e-12);
}

TEST(Standardizer, ConstantFeatureSafe) {
  std::vector<double> rows{5, 1, 5, 2, 5, 3};
  const auto s = Standardizer::fit(rows, 2);
  std::vector<double> row{5, 2};
  s.apply(row);
  EXPECT_DOUBLE_EQ(row[0], 0.0);  // (5-5)*1.0
}

TEST(Units, CycleConversionsRoundTrip) {
  EXPECT_EQ(cyclesIn(10'000, 1165.0), 11'650);
  EXPECT_NEAR(nsPerCycle(1000.0), 1.0, 1e-12);
  EXPECT_EQ(nsOf(1165, 1165.0), 1000);
  EXPECT_NEAR(secondsOf(1'000'000'000), 1.0, 1e-12);
}

TEST(Table, RendersAlignedAndCsv) {
  Table t("demo");
  t.header({"name", "value"});
  t.addRow({"a", Table::num(1.5)});
  t.addRow({"b,c", Table::pct(0.1109)});
  std::ostringstream text;
  t.print(text);
  EXPECT_NE(text.str().find("demo"), std::string::npos);
  EXPECT_NE(text.str().find("11.09%"), std::string::npos);
  std::ostringstream csv;
  t.printCsv(csv);
  EXPECT_NE(csv.str().find("\"b,c\""), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t;
  t.header({"a", "b"});
  EXPECT_THROW(t.addRow({"only-one"}), ContractError);
}

TEST(Table, RowsBeforeHeaderThrow) {
  Table t;
  EXPECT_THROW(t.addRow({"x"}), ContractError);
}

TEST(AsciiChart, RendersBarsScaledToMax) {
  std::ostringstream os;
  renderBarChart(os, "demo", {"a", "bb"}, {1.0, 2.0});
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("bb"), std::string::npos);
  // The larger bar has more fill characters than the smaller one.
  const auto count_fill = [&](std::size_t from, std::size_t to) {
    return std::count(out.begin() + static_cast<std::ptrdiff_t>(from),
                      out.begin() + static_cast<std::ptrdiff_t>(to), '#');
  };
  const auto line2 = out.find("\n  bb");
  ASSERT_NE(line2, std::string::npos);
  EXPECT_LT(count_fill(0, line2), count_fill(line2, out.size()));
}

TEST(AsciiChart, ReferenceMarkerShown) {
  std::ostringstream os;
  BarChartOptions opts;
  opts.reference = 1.0;
  renderBarChart(os, "", {"x"}, {0.5}, opts);
  EXPECT_NE(os.str().find('|'), std::string::npos);
  EXPECT_NE(os.str().find("marks"), std::string::npos);
}

TEST(AsciiChart, RejectsBadInput) {
  std::ostringstream os;
  EXPECT_THROW(renderBarChart(os, "", {"a"}, {1.0, 2.0}), ContractError);
  EXPECT_THROW(renderBarChart(os, "", {"a"}, {-1.0}), ContractError);
  EXPECT_THROW(
      renderGroupedBarChart(os, "", {"a"}, {"s1", "s2"}, {{1.0}}),
      ContractError);
}

TEST(AsciiChart, GroupedChartHasLegendAndAllSeries) {
  std::ostringstream os;
  renderGroupedBarChart(os, "t", {"w1", "w2"}, {"alpha", "beta"},
                        {{1.0, 2.0}, {2.0, 1.0}});
  const std::string out = os.str();
  EXPECT_NE(out.find("legend"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("beta"), std::string::npos);
  EXPECT_NE(out.find('='), std::string::npos);  // second series fill
}

TEST(Check, ThrowsWithContext) {
  try {
    SSM_CHECK(false, "extra context");
    FAIL() << "should have thrown";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("extra context"), std::string::npos);
  }
}

TEST(Grammar, SplitDropsEmptyTokensAndTrimStripsBlanks) {
  const std::vector<std::string_view> want = {"a", " b", "c "};
  EXPECT_EQ(split("a,, b,c ,", ','), want);
  EXPECT_TRUE(split("", '|').empty());
  EXPECT_TRUE(split("||", '|').empty());
  EXPECT_EQ(trim(" \tkey=v \t"), "key=v");
  EXPECT_EQ(trim("  "), "");
}

TEST(Grammar, NumbersParseOnlyWhenTheWholeTokenIsANumber) {
  EXPECT_EQ(toDouble("0.25"), 0.25);
  EXPECT_EQ(toDouble("-1e3"), -1000.0);
  for (const char* bad : {"", "abc", "0.1x", "1,5", "0.5 "})
    EXPECT_FALSE(toDouble(bad).has_value()) << "'" << bad << "'";
  EXPECT_EQ(toInt64("777"), 777);
  EXPECT_EQ(toInt64("-3"), -3);
  for (const char* bad : {"", "xyz", "7x", "1.5", "0x10"})
    EXPECT_FALSE(toInt64(bad).has_value()) << "'" << bad << "'";
}

TEST(Grammar, FormattedDoublesRoundTrip) {
  for (const double v : {0.1, 1.0 / 3.0, -2.5e-300, 45.0, 1e21}) {
    const std::string text = formatDouble(v);
    ASSERT_TRUE(toDouble(text).has_value()) << text;
    EXPECT_EQ(*toDouble(text), v) << text;
  }
  EXPECT_EQ(formatDouble(45.0), "45");
}

}  // namespace
}  // namespace ssm
