#include "stats.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  return values;
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

TEST(HighestTail, P99NeedsTenSamplesBeyond) {
  const Tail tail = HighestTail(OneTo(1000));
  EXPECT_EQ(tail.percentile, 99);
  EXPECT_DOUBLE_EQ(tail.value, 990);
  EXPECT_EQ(tail.samples, 1000u);
  EXPECT_EQ(tail.beyond, 10u);
}

TEST(HighestTail, FallsBackToTheHighestQualifyingPercentile) {
  // 999 samples: p99 ranks 990 and leaves only 9 beyond, so p98 it is.
  const Tail tail = HighestTail(OneTo(999));
  EXPECT_EQ(tail.percentile, 98);
  EXPECT_DOUBLE_EQ(tail.value, 980);
  EXPECT_EQ(tail.beyond, 19u);
  const Tail hundred = HighestTail(OneTo(100));
  EXPECT_EQ(hundred.percentile, 90);
  EXPECT_DOUBLE_EQ(hundred.value, 90);
  EXPECT_EQ(hundred.beyond, 10u);
}

TEST(HighestTail, TooFewSamplesReportsTheMedian) {
  const Tail tail = HighestTail(OneTo(15));
  EXPECT_EQ(tail.percentile, 50);
  EXPECT_DOUBLE_EQ(tail.value, 8);
  EXPECT_EQ(tail.samples, 15u);
  EXPECT_EQ(HighestTail({}).samples, 0u);
}

TEST(SummarizeSpans, SumsBusyTimeAcrossThreads) {
  // Two worker threads each spend 3 s in one layer: 6 s of busy time
  // over a 3 s interval.
  const std::vector<LayerTime> layers = SummarizeSpans({
      {"core.exposure", 1, 0, 3'000'000'000},
      {"core.exposure", 2, 0, 3'000'000'000},
  });
  ASSERT_EQ(layers.size(), 1u);
  EXPECT_EQ(layers[0].calls, 2u);
  EXPECT_DOUBLE_EQ(layers[0].total_s, 6.0);
  EXPECT_DOUBLE_EQ(layers[0].self_s, 6.0);
}

TEST(SummarizeSpans, SelfTimeSubtractsCoveredChildTime) {
  // pair [0, 10) holds exposure [1, 4) and selection [5, 7), which holds
  // a nested exposure [5, 6): pair self = 10 - 3 - 2, selection self = 1.
  const std::vector<LayerTime> layers = SummarizeSpans({
      {"pair", 1, 0, 10},
      {"exposure", 1, 1, 4},
      {"selection", 1, 5, 7},
      {"exposure", 1, 5, 6},
      // Same interval on another thread is not a child.
      {"exposure", 2, 0, 10},
  });
  ASSERT_EQ(layers.size(), 3u);
  EXPECT_EQ(layers[0].name, "exposure");
  EXPECT_DOUBLE_EQ(layers[0].total_s, 14e-9);
  EXPECT_DOUBLE_EQ(layers[0].self_s, 14e-9);
  EXPECT_EQ(layers[1].name, "pair");
  EXPECT_DOUBLE_EQ(layers[1].self_s, 5e-9);
  EXPECT_EQ(layers[2].name, "selection");
  EXPECT_DOUBLE_EQ(layers[2].total_s, 2e-9);
  EXPECT_DOUBLE_EQ(layers[2].self_s, 1e-9);
}

TEST(SummarizeSpans, SequentialSpansAreNotNested) {
  const std::vector<LayerTime> layers = SummarizeSpans({
      {"a", 1, 0, 5},
      {"b", 1, 5, 8},
  });
  ASSERT_EQ(layers.size(), 2u);
  EXPECT_DOUBLE_EQ(layers[0].self_s, 5e-9);
  EXPECT_DOUBLE_EQ(layers[1].self_s, 3e-9);
}

TEST(Ratio, PrintsItsBase) {
  EXPECT_EQ((Ratio{3, 6}).Describe(), "0.5 (3/6)");
  EXPECT_EQ((Ratio{968157, 1000000}).Describe(), "0.968157 (968157/1000000)");
  // Busy-time ratios keep the seconds they are made of.
  EXPECT_EQ((Ratio{2.5, 10.25}).Describe(), "0.243902 (2.5/10.25)");
  // An empty base reads 0 and still shows the base.
  EXPECT_DOUBLE_EQ((Ratio{0, 0}).value(), 0);
  EXPECT_EQ((Ratio{0, 0}).Describe(), "0 (0/0)");
}

}  // namespace
}  // namespace perfbench
