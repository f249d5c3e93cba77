// QuantileSketch's dense store against an ordered-map store: the sketch
// keeps its counts in an offset-indexed vector, and every observable (the
// fingerprint, 101 quantiles, bucket_count, collapsed, the moments) must
// equal what the same algorithm gives over std::map<bucket index, count>,
// through collapses, merges in shuffled orders and every kind of input.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "src/base/digest.h"
#include "src/base/rng.h"
#include "src/obs/sketch.h"

namespace soccluster {
namespace {

// The DDSketch algorithm over an ordered map: the reference the dense
// store must match.
class MapSketch {
 public:
  explicit MapSketch(const QuantileSketch::Options& options)
      : options_(options),
        gamma_((1.0 + options.relative_accuracy) /
               (1.0 - options.relative_accuracy)),
        log_gamma_(std::log(gamma_)) {}

  void Add(double x) {
    if (!std::isfinite(x)) {
      return;
    }
    if (count_ == 0) {
      min_ = x;
      max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    if (x < kMinIndexable) {
      ++zero_count_;
      return;
    }
    ++buckets_[static_cast<int32_t>(std::ceil(std::log(x) / log_gamma_))];
    if (static_cast<int>(buckets_.size()) > options_.max_buckets) {
      CollapseLowest();
    }
  }

  void Merge(const MapSketch& other) {
    if (other.count_ == 0) {
      return;
    }
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
    zero_count_ += other.zero_count_;
    for (const auto& [index, n] : other.buckets_) {
      buckets_[index] += n;
    }
    while (static_cast<int>(buckets_.size()) > options_.max_buckets) {
      CollapseLowest();
    }
  }

  double Quantile(double q) const {
    if (count_ == 0) {
      return 0.0;
    }
    q = std::clamp(q, 0.0, 1.0);
    const int64_t rank =
        static_cast<int64_t>(q * static_cast<double>(count_ - 1));
    int64_t cumulative = zero_count_;
    double estimate = 0.0;
    if (rank >= cumulative) {
      estimate = max_;
      for (const auto& [index, n] : buckets_) {
        cumulative += n;
        if (rank < cumulative) {
          estimate = 2.0 * std::exp(index * log_gamma_) / (gamma_ + 1.0);
          break;
        }
      }
    }
    return std::clamp(estimate, min_, max_);
  }

  uint64_t Fingerprint() const {
    StateDigest digest;
    digest.Mix(std::string_view("obs.sketch"));
    digest.Mix(options_.relative_accuracy);
    digest.Mix(static_cast<int64_t>(options_.max_buckets));
    digest.Mix(count_);
    digest.Mix(zero_count_);
    digest.Mix(sum_);
    digest.Mix(count_ > 0 ? min_ : 0.0);
    digest.Mix(count_ > 0 ? max_ : 0.0);
    for (const auto& [index, n] : buckets_) {
      digest.Mix(static_cast<int64_t>(index));
      digest.Mix(n);
    }
    return digest.value();
  }

  int bucket_count() const {
    return static_cast<int>(buckets_.size()) + (zero_count_ > 0 ? 1 : 0);
  }
  int64_t collapsed() const { return collapsed_; }
  int64_t count() const { return count_; }
  double sum() const { return sum_; }

 private:
  static constexpr double kMinIndexable = 1e-12;

  void CollapseLowest() {
    auto lowest = buckets_.begin();
    auto next = std::next(lowest);
    if (next == buckets_.end()) {
      return;
    }
    next->second += lowest->second;
    buckets_.erase(lowest);
    ++collapsed_;
  }

  QuantileSketch::Options options_;
  double gamma_;
  double log_gamma_;
  std::map<int32_t, int64_t> buckets_;
  int64_t zero_count_ = 0;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  int64_t collapsed_ = 0;
};

void ExpectSame(const QuantileSketch& dense, const MapSketch& reference,
                const char* where) {
  ASSERT_EQ(dense.Fingerprint(), reference.Fingerprint()) << where;
  ASSERT_EQ(dense.bucket_count(), reference.bucket_count()) << where;
  ASSERT_EQ(dense.collapsed(), reference.collapsed()) << where;
  ASSERT_EQ(dense.count(), reference.count()) << where;
  ASSERT_EQ(dense.sum(), reference.sum()) << where;
  for (int i = 0; i <= 100; ++i) {
    const double q = i / 100.0;
    ASSERT_EQ(dense.Quantile(q), reference.Quantile(q))
        << where << " q=" << q;
  }
}

// One draw from a mix of every input class the sketch sees or must
// survive: ordinary latencies, the whole finite range from 1e-12 to 1e300
// on a log scale, zero, values just below and above the zero bucket's
// edge, negatives, NaN and infinities.
double DrawValue(Rng& rng, double spread_decades) {
  const double kind = rng.NextDouble();
  if (kind < 0.55) {
    return 5.0 * std::exp(rng.Gaussian());  // Latency-like, around 5 ms.
  }
  if (kind < 0.80) {
    // Log-uniform over [1e-12, 1e-12 * 10^spread].
    return 1e-12 * std::pow(10.0, spread_decades * rng.NextDouble());
  }
  if (kind < 0.84) {
    return 0.0;
  }
  if (kind < 0.87) {
    return rng.NextDouble() < 0.5 ? 0.9e-12 : 1e-12;
  }
  if (kind < 0.91) {
    return -rng.Exponential(0.1);
  }
  if (kind < 0.94) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (kind < 0.97) {
    return rng.NextDouble() < 0.5 ? std::numeric_limits<double>::infinity()
                                  : -std::numeric_limits<double>::infinity();
  }
  return rng.NextDouble() < 0.5 ? 1e300 : std::numeric_limits<double>::max();
}

struct StoreCase {
  double relative_accuracy;
  int max_buckets;
  double spread_decades;
};

constexpr StoreCase kCases[] = {
    {0.01, 2048, 312.0},  // Default options, the whole finite range.
    {0.01, 8, 312.0},     // Collapses on almost every new bucket.
    {0.01, 8, 3.0},       // Collapses inside a narrow range.
    {0.05, 64, 40.0},
    {0.002, 2048, 6.0},
};

TEST(SketchStoreProperty, AddsMatchTheMapStore) {
  uint64_t seed = 11;
  for (const StoreCase& c : kCases) {
    const QuantileSketch::Options options{
        .relative_accuracy = c.relative_accuracy,
        .max_buckets = c.max_buckets};
    QuantileSketch dense(options);
    MapSketch reference(options);
    ExpectSame(dense, reference, "empty");
    Rng rng(++seed);
    for (int n = 1; n <= 6000; ++n) {
      const double x = DrawValue(rng, c.spread_decades);
      dense.Add(x);
      reference.Add(x);
      if (n % 97 == 0 || n < 20) {
        ExpectSame(dense, reference, "after adds");
      }
    }
    ExpectSame(dense, reference, "end");
    if (c.max_buckets == 8) {
      EXPECT_GT(dense.collapsed(), 0);
      EXPECT_LE(dense.bucket_count(), 9);
    }
  }
}

TEST(SketchStoreProperty, MergesInShuffledOrdersMatchTheMapStore) {
  uint64_t seed = 101;
  for (const StoreCase& c : kCases) {
    const QuantileSketch::Options options{
        .relative_accuracy = c.relative_accuracy,
        .max_buckets = c.max_buckets};
    Rng rng(++seed);
    // Shards over different ranges, so merges widen the store both ways;
    // one stays empty.
    constexpr int kShards = 7;
    std::vector<QuantileSketch> dense_shards;
    std::vector<MapSketch> reference_shards;
    for (int s = 0; s < kShards; ++s) {
      dense_shards.emplace_back(options);
      reference_shards.emplace_back(options);
      const int adds = s == 3 ? 0 : 50 + 400 * s;
      const double scale = std::pow(10.0, 4.0 * s - 10.0);
      for (int n = 0; n < adds; ++n) {
        const double x = rng.NextDouble() < 0.7
                             ? scale * std::exp(rng.Gaussian())
                             : DrawValue(rng, c.spread_decades);
        dense_shards.back().Add(x);
        reference_shards.back().Add(x);
      }
      ExpectSame(dense_shards.back(), reference_shards.back(), "shard");
    }
    uint64_t first_fingerprint = 0;
    for (int order_round = 0; order_round < 6; ++order_round) {
      std::vector<int> order(kShards);
      for (int s = 0; s < kShards; ++s) {
        order[static_cast<size_t>(s)] = s;
      }
      for (int i = kShards - 1; i > 0; --i) {
        std::swap(order[static_cast<size_t>(i)],
                  order[static_cast<size_t>(rng.UniformInt(0, i))]);
      }
      QuantileSketch dense(options);
      MapSketch reference(options);
      for (const int s : order) {
        dense.Merge(dense_shards[static_cast<size_t>(s)]);
        reference.Merge(reference_shards[static_cast<size_t>(s)]);
        ExpectSame(dense, reference, "merging");
      }
      // Adds after merges keep matching too.
      for (int n = 0; n < 200; ++n) {
        const double x = DrawValue(rng, c.spread_decades);
        dense.Add(x);
        reference.Add(x);
      }
      ExpectSame(dense, reference, "adds after merges");
      if (c.max_buckets == 2048) {
        // Without collapses the merge is order-independent.
        QuantileSketch merged(options);
        for (const int s : order) {
          merged.Merge(dense_shards[static_cast<size_t>(s)]);
        }
        if (order_round == 0) {
          first_fingerprint = merged.Fingerprint();
        }
        EXPECT_EQ(merged.Fingerprint(), first_fingerprint);
      }
    }
  }
}

TEST(SketchStoreProperty, CopiesAndResetsKeepTheStoreSeparate) {
  QuantileSketch a;
  for (int i = 1; i <= 300; ++i) {
    a.Add(i * 0.37);
  }
  QuantileSketch b = a;
  b.Add(1e9);
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  EXPECT_EQ(b.bucket_count(), a.bucket_count() + 1);
  a = QuantileSketch();
  EXPECT_EQ(a.bucket_count(), 0);
  EXPECT_EQ(a.Fingerprint(), QuantileSketch().Fingerprint());
  a.Merge(b);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

}  // namespace
}  // namespace soccluster
