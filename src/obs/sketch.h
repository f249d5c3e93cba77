// Fixed-memory quantile sketch (DDSketch-style): log-spaced buckets give a
// configurable *relative* error bound on every quantile — Quantile(q) is
// within a factor of (1 ± relative_accuracy) of the true value — while
// storing O(buckets) state regardless of how many values were added.
//
// Properties the rest of the repo relies on:
//   - Mergeable: Merge() is commutative and associative (bucket counts add),
//     so per-shard sketches can be combined in any order.
//   - Deterministic: bucket counts live in DDSketch's dense store, a vector
//     of counts indexed by integer bucket index minus an offset, walked in
//     index order; Fingerprint() and quantile answers depend only on the
//     multiset of added values, never on insertion order.
//   - Bounded: when the count of non-empty buckets would exceed
//     Options::max_buckets the lowest non-empty bucket folds into the next
//     one (the DDSketch collapsing strategy), so tail quantiles keep their
//     guarantee. The store itself spans the indices added so far, so Add is
//     an array increment; it allocates nothing before the first Add and
//     never exceeds the index span of the finite range, 1e-12 to DBL_MAX
//     (about 37k counts at the default relative_accuracy of 0.01).
//
// Non-finite values are dropped; values below 1e-12, negatives included,
// land in the zero bucket (request latencies, sojourn times, and sizes are
// all non-negative here).

#ifndef SRC_OBS_SKETCH_H_
#define SRC_OBS_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace soccluster {

class QuantileSketch {
 public:
  struct Options {
    // Relative error bound alpha: Quantile(q) is in
    // [x / (1 + alpha), x * (1 + alpha)] for the true quantile x.
    double relative_accuracy = 0.01;
    // Hard cap on stored buckets. 2048 buckets at alpha=0.01 cover ~17
    // orders of magnitude before any collapsing happens.
    int max_buckets = 2048;
  };

  QuantileSketch() : QuantileSketch(Options{}) {}
  explicit QuantileSketch(const Options& options);

  void Add(double x);

  // Adds every bucket of `other` into this sketch. Commutative: merging a
  // set of sketches yields the same state in any order.
  void Merge(const QuantileSketch& other);

  // Quantile estimate for q in [0, 1]; Percentile takes [0, 100].
  // Returns 0 for an empty sketch. Estimates are clamped to [min, max],
  // so q=0 and q=1 are exact.
  double Quantile(double q) const;
  double Percentile(double p) const { return Quantile(p / 100.0); }

  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double relative_accuracy() const { return options_.relative_accuracy; }
  int bucket_count() const {
    return nonempty_ + (zero_count_ > 0 ? 1 : 0);
  }
  // Number of lowest-bucket collapse operations performed (0 until the
  // max_buckets cap is hit).
  int64_t collapsed() const { return collapsed_; }

  // Order-independent digest of the sketch state: equal multisets of added
  // values (with equal options) produce equal fingerprints regardless of the
  // order of Add/Merge calls. Used by tests to prove merge commutativity.
  uint64_t Fingerprint() const;

 private:
  int32_t BucketIndex(double x) const;
  double BucketValue(int32_t index) const;
  // Widens the store to cover bucket indices [lo, hi].
  void Cover(int32_t lo, int32_t hi);
  // Adds `n` values to bucket `index`, which the store covers.
  void AddToBucket(int32_t index, int64_t n);
  void CollapseLowest();
  // Position in counts_ of the lowest bucket that may be non-empty.
  size_t FirstCount() const {
    return nonempty_ > 0 ? static_cast<size_t>(lowest_ - offset_)
                         : counts_.size();
  }

  Options options_;
  double gamma_ = 0.0;      // (1 + alpha) / (1 - alpha)
  double log_gamma_ = 0.0;  // ln(gamma), cached for BucketIndex.
  // Values below this map to the zero bucket (guards log underflow).
  double min_indexable_ = 0.0;

  // counts_[i] counts bucket offset_ + i; buckets below lowest_ are empty.
  std::vector<int64_t> counts_;
  int32_t offset_ = 0;
  int32_t lowest_ = 0;
  int nonempty_ = 0;       // Non-empty buckets in counts_.
  int64_t zero_count_ = 0;  // values below min_indexable_
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  int64_t collapsed_ = 0;
};

}  // namespace soccluster

#endif  // SRC_OBS_SKETCH_H_
