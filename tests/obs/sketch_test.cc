// QuantileSketch accuracy and algebra: the relative-error bound every
// HistogramMetric's percentiles rely on, and the merge/fingerprint
// properties the determinism story depends on.

#include "src/obs/sketch.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/obs/metrics.h"

namespace soccluster {
namespace {

// Exact empirical quantile (nearest rank) of the added multiset — the
// reference the DDSketch bound is stated against.
double ExactQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(q * (values.size() - 1));
  return values[rank];
}

void CheckQuantiles(const QuantileSketch& sketch,
                    const std::vector<double>& values) {
  // The guarantee is alpha = 1% relative error; the tiny extra slack
  // covers the gap between adjacent order statistics at 100k samples.
  const double tolerance = sketch.relative_accuracy() + 0.003;
  for (double q : {0.50, 0.90, 0.99, 0.999}) {
    const double exact = ExactQuantile(values, q);
    const double estimate = sketch.Quantile(q);
    EXPECT_NEAR(estimate, exact, exact * tolerance)
        << "q=" << q << " exact=" << exact << " estimate=" << estimate;
  }
}

TEST(QuantileSketchTest, UniformWithinRelativeErrorBound) {
  QuantileSketch sketch;
  Rng rng(1);
  std::vector<double> values;
  for (int i = 0; i < 100000; ++i) {
    values.push_back(rng.Uniform(1.0, 1000.0));
    sketch.Add(values.back());
  }
  CheckQuantiles(sketch, values);
}

TEST(QuantileSketchTest, LogNormalWithinRelativeErrorBound) {
  QuantileSketch sketch;
  Rng rng(2);
  std::vector<double> values;
  for (int i = 0; i < 100000; ++i) {
    values.push_back(std::exp(rng.Gaussian() * 1.5 + 2.0));
    sketch.Add(values.back());
  }
  CheckQuantiles(sketch, values);
}

TEST(QuantileSketchTest, ExponentialWithinRelativeErrorBound) {
  QuantileSketch sketch;
  Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 100000; ++i) {
    values.push_back(rng.Exponential(0.02));
    sketch.Add(values.back());
  }
  CheckQuantiles(sketch, values);
}

TEST(QuantileSketchTest, MatchesSampleStatsPercentiles) {
  // HistogramMetric percentiles come from this sketch: they must agree
  // with the exact SampleStats view within the advertised bound.
  QuantileSketch sketch;
  SampleStats stats;
  Rng rng(4);
  for (int i = 0; i < 50000; ++i) {
    const double x = rng.Exponential(0.1) * 100.0;
    sketch.Add(x);
    stats.Add(x);
  }
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    const double exact = stats.Percentile(p);
    EXPECT_NEAR(sketch.Percentile(p), exact, exact * 0.013) << "p=" << p;
  }
}

TEST(QuantileSketchTest, MergeIsOrderIndependent) {
  QuantileSketch a, b, ab, ba, all;
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.Exponential(0.05);
    if (i % 2 == 0) {
      a.Add(x);
    } else {
      b.Add(x);
    }
    all.Add(x);
  }
  ab.Merge(a);
  ab.Merge(b);
  ba.Merge(b);
  ba.Merge(a);
  EXPECT_EQ(ab.Fingerprint(), ba.Fingerprint());
  // Merging shards matches one sketch over the union bucket-for-bucket
  // (the running sums differ in the last float bits, so fingerprints are
  // only guaranteed equal across merge *orders*, not merge *shapes*).
  EXPECT_EQ(ab.count(), all.count());
  EXPECT_DOUBLE_EQ(ab.min(), all.min());
  EXPECT_DOUBLE_EQ(ab.max(), all.max());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_DOUBLE_EQ(ab.Quantile(q), all.Quantile(q)) << "q=" << q;
  }
}

TEST(QuantileSketchTest, FingerprintIgnoresInsertionOrder) {
  QuantileSketch forward, reverse;
  for (int i = 1; i <= 1000; ++i) {
    forward.Add(i);
    reverse.Add(1001 - i);
  }
  EXPECT_EQ(forward.Fingerprint(), reverse.Fingerprint());
}

TEST(QuantileSketchTest, CollapseBoundsMemoryAndKeepsTail) {
  QuantileSketch::Options options;
  options.max_buckets = 32;
  QuantileSketch sketch(options);
  Rng rng(6);
  std::vector<double> values;
  for (int i = 0; i < 50000; ++i) {
    // Nine decades force the cap; the collapse must eat the low end.
    values.push_back(std::pow(10.0, rng.Uniform(-3.0, 6.0)));
    sketch.Add(values.back());
  }
  EXPECT_GT(sketch.collapsed(), 0);
  EXPECT_LE(sketch.bucket_count(), 33);  // 32 log buckets + zero bucket.
  // Tail quantiles keep the guarantee (collapsing only merges the lowest
  // buckets).
  const double exact = ExactQuantile(values, 0.99);
  EXPECT_NEAR(sketch.Quantile(0.99), exact, exact * 0.013);
  EXPECT_NEAR(sketch.Quantile(1.0), sketch.max(), sketch.max() * 0.013);
  EXPECT_LE(sketch.Quantile(1.0), sketch.max());
}

TEST(QuantileSketchTest, EmptySingleAndExtremes) {
  QuantileSketch sketch;
  EXPECT_EQ(sketch.count(), 0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.5), 0.0);

  sketch.Add(42.0);
  EXPECT_EQ(sketch.count(), 1);
  for (double q : {0.0, 0.5, 0.999, 1.0}) {
    EXPECT_NEAR(sketch.Quantile(q), 42.0, 42.0 * 0.01) << "q=" << q;
  }
  // q=0 / q=1 are clamped into the observed [min, max] range and land
  // within the relative-accuracy bound of the true extremes.
  sketch.Add(7.0);
  sketch.Add(9000.0);
  EXPECT_GE(sketch.Quantile(0.0), 7.0);
  EXPECT_NEAR(sketch.Quantile(0.0), 7.0, 7.0 * 0.011);
  EXPECT_LE(sketch.Quantile(1.0), 9000.0);
  EXPECT_NEAR(sketch.Quantile(1.0), 9000.0, 9000.0 * 0.011);
}

TEST(QuantileSketchTest, ZeroAndNegativeLandInZeroBucket) {
  QuantileSketch sketch;
  sketch.Add(0.0);
  sketch.Add(-5.0);
  EXPECT_EQ(sketch.count(), 2);
  EXPECT_LE(sketch.Quantile(0.5), 0.0);
  // Non-finite values are dropped, not poisoning the state.
  sketch.Add(std::numeric_limits<double>::quiet_NaN());
  sketch.Add(std::numeric_limits<double>::infinity());
  EXPECT_EQ(sketch.count(), 2);
}

TEST(HistogramMetricTest, PercentileStaysWithinSketchBound) {
  MetricRegistry registry;
  HistogramMetric* histogram = registry.GetHistogram("latency_ms");
  EXPECT_DOUBLE_EQ(histogram->Percentile(99), 0.0);
  Rng rng(7);
  SampleStats reference;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.Exponential(0.01);
    histogram->Observe(x);
    reference.Add(x);
  }
  EXPECT_EQ(histogram->count(), 10000);
  const double exact = reference.Percentile(99);
  EXPECT_NEAR(histogram->Percentile(99), exact, exact * 0.013);
}

}  // namespace
}  // namespace soccluster
