#include "src/base/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace soccluster {
namespace {

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat stat;
  EXPECT_EQ(stat.count(), 0);
  EXPECT_EQ(stat.mean(), 0.0);
  EXPECT_EQ(stat.Variance(), 0.0);
}

TEST(RunningStatTest, MeanMinMax) {
  RunningStat stat;
  for (double x : {4.0, 2.0, 6.0, 8.0}) {
    stat.Add(x);
  }
  EXPECT_EQ(stat.count(), 4);
  EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stat.min(), 2.0);
  EXPECT_DOUBLE_EQ(stat.max(), 8.0);
  EXPECT_DOUBLE_EQ(stat.sum(), 20.0);
}

TEST(RunningStatTest, VarianceMatchesDefinition) {
  RunningStat stat;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stat.Add(x);
  }
  // Sample variance of this classic set is 4.571428...
  EXPECT_NEAR(stat.Variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(stat.StdDev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningStatTest, MergeEqualsCombinedStream) {
  RunningStat a;
  RunningStat b;
  RunningStat all;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.7 - 3.0;
    (i % 2 == 0 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.Variance(), all.Variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStatTest, MergeWithEmpty) {
  RunningStat a;
  a.Add(1.0);
  RunningStat empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1);
  EXPECT_EQ(empty.mean(), 1.0);
}

TEST(SampleStatsTest, PercentileInterpolation) {
  SampleStats stats;
  for (double x : {10.0, 20.0, 30.0, 40.0}) {
    stats.Add(x);
  }
  EXPECT_DOUBLE_EQ(stats.Percentile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(100.0), 40.0);
  EXPECT_DOUBLE_EQ(stats.Median(), 25.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(25.0), 17.5);
}

TEST(SampleStatsTest, SingleSample) {
  SampleStats stats;
  stats.Add(5.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(99.0), 5.0);
  EXPECT_DOUBLE_EQ(stats.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.Min(), 5.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 5.0);
}

TEST(SampleStatsTest, UnsortedInsertOrder) {
  SampleStats stats;
  for (double x : {9.0, 1.0, 5.0, 3.0, 7.0}) {
    stats.Add(x);
  }
  EXPECT_DOUBLE_EQ(stats.Min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.Median(), 5.0);
}

TEST(TimeWeightedStatTest, PiecewiseConstantIntegral) {
  TimeWeightedStat stat;
  stat.Update(SimTime::Zero(), 10.0);
  stat.Update(SimTime::Zero() + Duration::Seconds(5), 20.0);
  stat.Close(SimTime::Zero() + Duration::Seconds(10));
  // 10 W x 5 s + 20 W x 5 s = 150.
  EXPECT_DOUBLE_EQ(stat.Integral(), 150.0);
  EXPECT_DOUBLE_EQ(stat.Mean(), 15.0);
  EXPECT_DOUBLE_EQ(stat.Elapsed().ToSeconds(), 10.0);
}

TEST(TimeWeightedStatTest, RepeatedUpdatesAtSameTime) {
  TimeWeightedStat stat;
  const SimTime t0 = SimTime::Zero();
  stat.Update(t0, 1.0);
  stat.Update(t0, 2.0);  // Overrides instantaneously.
  stat.Close(t0 + Duration::Seconds(1));
  EXPECT_DOUBLE_EQ(stat.Integral(), 2.0);
}

TEST(TimeWeightedStatTest, CloseWithoutUpdates) {
  TimeWeightedStat stat;
  stat.Close(SimTime::Zero() + Duration::Seconds(3));
  EXPECT_DOUBLE_EQ(stat.Integral(), 0.0);
  EXPECT_DOUBLE_EQ(stat.Elapsed().ToSeconds(), 0.0);
}

}  // namespace
}  // namespace soccluster
