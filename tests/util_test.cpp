// Unit and property tests for src/util: RNG, statistics, tables, clock.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "src/util/rng.h"
#include "src/util/sim_clock.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace wayfinder {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += (a.Next() == b.Next()) ? 1 : 0;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(3);
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.Add(rng.Normal());
  }
  EXPECT_NEAR(stats.Mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.StdDev(), 1.0, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / 20000.0, 0.3, 0.02);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(19);
  std::vector<double> weights = {1.0, 3.0, 0.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) {
    ++counts[rng.WeightedIndex(weights)];
  }
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / 20000.0, 0.75, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(31);
  Rng child = a.Fork();
  // The child stream should not replay the parent's outputs.
  Rng b(31);
  b.Fork();
  EXPECT_NE(child.Next(), a.Next());
}

TEST(Hashing, StableHashIsStable) {
  EXPECT_EQ(StableHash("net.core.somaxconn"), StableHash("net.core.somaxconn"));
  EXPECT_NE(StableHash("a"), StableHash("b"));
}

TEST(Hashing, HashCombineOrderSensitive) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(RunningStats, MatchesBatchComputation) {
  RunningStats stats;
  std::vector<double> values = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double v : values) {
    stats.Add(v);
  }
  EXPECT_DOUBLE_EQ(stats.Mean(), 5.0);
  EXPECT_NEAR(stats.StdDev(), StdDev(values), 1e-12);
}

TEST(Stats, QuantileInterpolates) {
  std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.5), 2.5);
}

TEST(Stats, PearsonCorrelationKnownCases) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> z = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, z), -1.0, 1e-12);
  std::vector<double> c = {3, 3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, c), 0.0);
}

TEST(Stats, MinMaxNormalizeRangeAndConstants) {
  std::vector<double> v = {10.0, 20.0, 15.0};
  std::vector<double> n = MinMaxNormalize(v);
  EXPECT_DOUBLE_EQ(n[0], 0.0);
  EXPECT_DOUBLE_EQ(n[1], 1.0);
  EXPECT_DOUBLE_EQ(n[2], 0.5);
  std::vector<double> constant = {5.0, 5.0};
  for (double c : MinMaxNormalize(constant)) {
    EXPECT_DOUBLE_EQ(c, 0.5);
  }
}

TEST(Stats, SmoothSeriesWindowMean) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  std::vector<double> s = SmoothSeries(v, 2);
  EXPECT_DOUBLE_EQ(s[0], 1.0);
  EXPECT_DOUBLE_EQ(s[1], 1.5);
  EXPECT_DOUBLE_EQ(s[4], 4.5);
}

TEST(SimClock, AdvancesAndIgnoresNegative) {
  SimClock clock;
  EXPECT_DOUBLE_EQ(clock.Now(), 0.0);
  clock.Advance(5.5);
  clock.Advance(-2.0);
  EXPECT_DOUBLE_EQ(clock.Now(), 5.5);
}

TEST(WallTimerTest, MeasuresElapsed) {
  WallTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink += std::sqrt(static_cast<double>(i));
  }
  EXPECT_GT(timer.ElapsedSeconds(), 0.0);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer-name", "2"});
  std::ostringstream oss;
  table.Print(oss);
  std::string text = oss.str();
  EXPECT_NE(text.find("longer-name"), std::string::npos);
  EXPECT_NE(text.find("value"), std::string::npos);
}

TEST(TablePrinterTest, NumFormatsPrecision) {
  EXPECT_EQ(TablePrinter::Num(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::Num(2.0, 0), "2");
}

// Property sweep: Uniform(lo, hi) stays in range for many (lo, hi) pairs.
class UniformRangeTest : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(UniformRangeTest, StaysWithin) {
  auto [lo, hi] = GetParam();
  Rng rng(StableHash("range") ^ static_cast<uint64_t>(lo * 1000.0));
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(lo, hi);
    ASSERT_GE(v, lo);
    ASSERT_LT(v, hi);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranges, UniformRangeTest,
                         ::testing::Values(std::make_pair(0.0, 1.0), std::make_pair(-5.0, 5.0),
                                           std::make_pair(1e-6, 2e-6),
                                           std::make_pair(-1e9, 1e9)));

TEST(MeanCiTest, EmptyAndSingleSampleHaveZeroWidth) {
  MeanCi empty = MeanConfidenceInterval({});
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
  EXPECT_DOUBLE_EQ(empty.half_width, 0.0);

  MeanCi single = MeanConfidenceInterval({42.0});
  EXPECT_DOUBLE_EQ(single.mean, 42.0);
  EXPECT_DOUBLE_EQ(single.half_width, 0.0);
  EXPECT_DOUBLE_EQ(single.lo(), 42.0);
  EXPECT_DOUBLE_EQ(single.hi(), 42.0);
}

TEST(MeanCiTest, KnownValues) {
  // Values 1..5: mean 3, sample std sqrt(2.5), n=5.
  MeanCi ci = MeanConfidenceInterval({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(ci.mean, 3.0);
  EXPECT_NEAR(ci.half_width, 1.96 * std::sqrt(2.5) / std::sqrt(5.0), 1e-12);
  EXPECT_LT(ci.lo(), ci.mean);
  EXPECT_GT(ci.hi(), ci.mean);
}

TEST(MeanCiTest, WidthShrinksWithSampleCount) {
  Rng rng(401);
  std::vector<double> small;
  std::vector<double> large;
  for (int i = 0; i < 400; ++i) {
    double v = rng.Normal(10.0, 2.0);
    if (i < 20) {
      small.push_back(v);
    }
    large.push_back(v);
  }
  EXPECT_LT(MeanConfidenceInterval(large).half_width,
            MeanConfidenceInterval(small).half_width);
}

TEST(MeanCiTest, CustomZScalesWidth) {
  std::vector<double> values = {1, 2, 3, 4, 5, 6};
  MeanCi narrow = MeanConfidenceInterval(values, 1.0);
  MeanCi wide = MeanConfidenceInterval(values, 2.58);
  EXPECT_NEAR(wide.half_width / narrow.half_width, 2.58, 1e-12);
}

}  // namespace
}  // namespace wayfinder
