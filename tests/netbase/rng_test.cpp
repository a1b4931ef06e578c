#include "netbase/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

namespace quicksand::netbase {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(7);
  Rng child = parent.Fork();
  // The child must not replay the parent's stream.
  Rng parent_copy(7);
  (void)parent_copy.Fork();
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (child() == parent()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformInt(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
  EXPECT_EQ(rng.UniformInt(5, 5), 5u);
}

TEST(Rng, UniformDoubleInHalfOpenUnitInterval) {
  Rng rng(11);
  double min = 1, max = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    min = std::min(min, v);
    max = std::max(max, v);
  }
  EXPECT_LT(min, 0.01);
  EXPECT_GT(max, 0.99);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(9);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(Rng, ParetoRespectsScaleAndIsHeavyTailed) {
  Rng rng(13);
  double max = 0;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.Pareto(2.0, 1.2);
    ASSERT_GE(v, 2.0);
    max = std::max(max, v);
  }
  EXPECT_GT(max, 100.0);  // heavy tail produces large excursions
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(17);
  const std::array<double, 3> weights = {1.0, 0.0, 3.0};
  std::array<int, 3> counts = {0, 0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.WeightedIndex(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, WeightedIndexRejectsDegenerateInput) {
  Rng rng(1);
  const std::vector<double> empty;
  EXPECT_THROW((void)rng.WeightedIndex(empty), std::invalid_argument);
  const std::array<double, 2> zeros = {0.0, 0.0};
  EXPECT_THROW((void)rng.WeightedIndex(zeros), std::invalid_argument);
  // NaN, infinite and negative weights, and finite weights whose sum
  // overflows.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double big = std::numeric_limits<double>::max();
  EXPECT_THROW((void)rng.WeightedIndex(std::array<double, 2>{1.0, nan}),
               std::invalid_argument);
  EXPECT_THROW((void)rng.WeightedIndex(std::array<double, 2>{inf, 1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)rng.WeightedIndex(std::array<double, 2>{2.0, -1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)rng.WeightedIndex(std::array<double, 2>{big, big}),
               std::invalid_argument);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(21);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(ZipfSampler, RejectsDegenerateParameters) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(5, -0.1), std::invalid_argument);
}

TEST(ZipfSampler, ProbabilitiesSumToOneAndDecline) {
  ZipfSampler zipf(100, 1.2);
  double sum = 0;
  for (std::size_t r = 0; r < zipf.size(); ++r) sum += zipf.Probability(r);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(zipf.Probability(0), zipf.Probability(1));
  EXPECT_GT(zipf.Probability(1), zipf.Probability(50));
}

TEST(ZipfSampler, SampleFrequenciesTrackProbabilities) {
  ZipfSampler zipf(20, 1.0);
  Rng rng(23);
  std::vector<int> counts(20, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, zipf.Probability(0), 0.01);
  EXPECT_NEAR(static_cast<double>(counts[5]) / n, zipf.Probability(5), 0.01);
  EXPECT_GT(counts[0], counts[19]);
}

TEST(ZipfSampler, ExponentZeroIsUniform) {
  ZipfSampler zipf(10, 0.0);
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_NEAR(zipf.Probability(r), 0.1, 1e-9);
  }
}

}  // namespace
}  // namespace quicksand::netbase
