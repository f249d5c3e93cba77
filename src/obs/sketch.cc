#include "src/obs/sketch.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string_view>

#include "src/base/check.h"
#include "src/base/digest.h"

namespace soccluster {

namespace {

// Counts a store starts with, and the fewest it grows by; growth at least
// doubles the store, so Add stays amortized O(1).
constexpr int32_t kMinGrowth = 64;

}  // namespace

QuantileSketch::QuantileSketch(const Options& options) : options_(options) {
  SOC_CHECK(options_.relative_accuracy > 0.0 &&
            options_.relative_accuracy < 1.0)
      << "relative_accuracy must be in (0, 1)";
  SOC_CHECK(options_.max_buckets >= 8) << "max_buckets must be >= 8";
  gamma_ = (1.0 + options_.relative_accuracy) /
           (1.0 - options_.relative_accuracy);
  log_gamma_ = std::log(gamma_);
  // Anything below this is indistinguishable from zero at every scale the
  // repo measures (milliseconds, bytes, watts); it also keeps BucketIndex
  // far away from int32 overflow.
  min_indexable_ = 1e-12;
}

int32_t QuantileSketch::BucketIndex(double x) const {
  // std::ceil without the libm call: truncation rounds toward zero, so
  // only a positive non-integer needs the step up.
  const double scaled = std::log(x) / log_gamma_;
  const int32_t index = static_cast<int32_t>(scaled);
  return static_cast<double>(index) < scaled ? index + 1 : index;
}

double QuantileSketch::BucketValue(int32_t index) const {
  // Midpoint (in the relative sense) of bucket (gamma^(i-1), gamma^i]:
  // 2 * gamma^i / (gamma + 1) is within alpha of every value in the bucket.
  return 2.0 * std::exp(index * log_gamma_) / (gamma_ + 1.0);
}

void QuantileSketch::Add(double x) {
  if (!std::isfinite(x)) {
    return;  // NaN/inf would poison sum and bucket math; drop silently.
  }
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++count_;
  sum_ += x;
  if (x < min_indexable_) {
    ++zero_count_;
    return;
  }
  const int32_t index = BucketIndex(x);
  Cover(index, index);
  AddToBucket(index, 1);
  if (nonempty_ > options_.max_buckets) {
    CollapseLowest();
  }
}

void QuantileSketch::Cover(int32_t lo, int32_t hi) {
  const int32_t size = static_cast<int32_t>(counts_.size());
  const int32_t top = offset_ + size - 1;
  if (size > 0 && lo >= offset_ && hi <= top) {
    return;
  }
  // Pad each side that grows, but not past the bucket indices of
  // min_indexable_ and DBL_MAX (taken unrounded, in double: the padding
  // only has to stay near them).
  const int32_t pad = std::max(kMinGrowth, size);
  int32_t new_lo = lo;
  int32_t new_hi = hi;
  if (size > 0) {
    new_lo = std::min(lo, offset_);
    new_hi = std::max(hi, top);
  }
  if (size == 0 || lo < offset_) {
    const double floor = std::log(min_indexable_) / log_gamma_;
    new_lo = std::min(new_lo, static_cast<int32_t>(std::max(
                                  static_cast<double>(new_lo) - pad, floor)));
  }
  if (size == 0 || hi > top) {
    const double ceiling =
        std::log(std::numeric_limits<double>::max()) / log_gamma_;
    new_hi = std::max(new_hi, static_cast<int32_t>(std::min(
                                  static_cast<double>(new_hi) + pad, ceiling)));
  }
  std::vector<int64_t> grown(static_cast<size_t>(new_hi - new_lo + 1), 0);
  if (size > 0) {
    std::copy(counts_.begin(), counts_.end(),
              grown.begin() + (offset_ - new_lo));
  }
  counts_.swap(grown);
  offset_ = new_lo;
}

void QuantileSketch::AddToBucket(int32_t index, int64_t n) {
  int64_t& slot = counts_[static_cast<size_t>(index - offset_)];
  if (slot == 0) {
    if (nonempty_ == 0 || index < lowest_) {
      lowest_ = index;
    }
    ++nonempty_;
  }
  slot += n;
}

void QuantileSketch::CollapseLowest() {
  // Fold the lowest non-empty bucket into the next non-empty one above.
  // Low quantiles lose precision first; the tail (p99+) keeps its
  // guarantee.
  if (nonempty_ < 2) {
    return;  // Single bucket: nothing to collapse into.
  }
  size_t lowest = static_cast<size_t>(lowest_ - offset_);
  while (counts_[lowest] == 0) {
    ++lowest;
  }
  size_t next = lowest + 1;
  while (counts_[next] == 0) {
    ++next;
  }
  counts_[next] += counts_[lowest];
  counts_[lowest] = 0;
  --nonempty_;
  lowest_ = offset_ + static_cast<int32_t>(next);
  ++collapsed_;
}

void QuantileSketch::Merge(const QuantileSketch& other) {
  if (other.count_ == 0) {
    return;
  }
  SOC_CHECK(other.options_.relative_accuracy == options_.relative_accuracy)
      << "cannot merge sketches with different relative accuracy";
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
  zero_count_ += other.zero_count_;
  if (other.nonempty_ > 0) {
    const int32_t other_top =
        other.offset_ + static_cast<int32_t>(other.counts_.size()) - 1;
    Cover(other.lowest_, other_top);
    for (int32_t index = other.lowest_; index <= other_top; ++index) {
      const int64_t n =
          other.counts_[static_cast<size_t>(index - other.offset_)];
      if (n > 0) {
        AddToBucket(index, n);
      }
    }
  }
  while (nonempty_ > options_.max_buckets) {
    CollapseLowest();
  }
}

double QuantileSketch::Quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the requested quantile among the `count_` sorted values.
  const int64_t rank = static_cast<int64_t>(q * static_cast<double>(count_ - 1));
  int64_t cumulative = zero_count_;
  double estimate = 0.0;
  if (rank < cumulative) {
    estimate = 0.0;
  } else {
    estimate = max_;
    for (size_t i = FirstCount(); i < counts_.size(); ++i) {
      cumulative += counts_[i];
      if (rank < cumulative) {
        estimate = BucketValue(offset_ + static_cast<int32_t>(i));
        break;
      }
    }
  }
  // Clamp into the observed range: q=0 and q=1 become exact, and collapsed
  // low buckets can never report below the true minimum.
  if (estimate < min_) estimate = min_;
  if (estimate > max_) estimate = max_;
  return estimate;
}

uint64_t QuantileSketch::Fingerprint() const {
  StateDigest digest;
  digest.Mix(std::string_view("obs.sketch"));
  digest.Mix(options_.relative_accuracy);
  digest.Mix(static_cast<int64_t>(options_.max_buckets));
  digest.Mix(count_);
  digest.Mix(zero_count_);
  digest.Mix(sum_);
  digest.Mix(min());
  digest.Mix(max());
  for (size_t i = FirstCount(); i < counts_.size(); ++i) {
    if (counts_[i] > 0) {
      digest.Mix(static_cast<int64_t>(offset_) + static_cast<int64_t>(i));
      digest.Mix(counts_[i]);
    }
  }
  return digest.value();
}

}  // namespace soccluster
