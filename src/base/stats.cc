#include "src/base/stats.h"

#include <algorithm>
#include <cmath>

#include "src/base/check.h"

namespace soccluster {

void RunningStat::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStat::Merge(const RunningStat& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStat::Variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::StdDev() const { return std::sqrt(Variance()); }

void SampleStats::Add(double x) {
  samples_.push_back(x);
  sorted_valid_ = false;
}

void SampleStats::SortIfNeeded() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double SampleStats::Mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double s : samples_) {
    sum += s;
  }
  return sum / static_cast<double>(samples_.size());
}

double SampleStats::Min() const {
  SOC_CHECK(!samples_.empty());
  SortIfNeeded();
  return sorted_.front();
}

double SampleStats::Max() const {
  SOC_CHECK(!samples_.empty());
  SortIfNeeded();
  return sorted_.back();
}

double SampleStats::Percentile(double p) const {
  SOC_CHECK(!samples_.empty());
  SOC_CHECK_GE(p, 0.0);
  SOC_CHECK_LE(p, 100.0);
  SortIfNeeded();
  if (sorted_.size() == 1) {
    return sorted_[0];
  }
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

void TimeWeightedStat::Advance(SimTime now) {
  SOC_CHECK_GE(now.nanos(), last_.nanos())
      << "TimeWeightedStat updated backwards in time";
  integral_ += value_ * (now - last_).ToSeconds();
  last_ = now;
}

void TimeWeightedStat::Update(SimTime now, double value) {
  if (!started_) {
    started_ = true;
    start_ = now;
    last_ = now;
  } else {
    Advance(now);
  }
  value_ = value;
}

void TimeWeightedStat::Close(SimTime end) {
  if (!started_) {
    started_ = true;
    start_ = end;
    last_ = end;
    return;
  }
  Advance(end);
}

double TimeWeightedStat::Mean() const {
  const double secs = Elapsed().ToSeconds();
  return secs > 0.0 ? integral_ / secs : value_;
}

Duration TimeWeightedStat::Elapsed() const {
  return started_ ? last_ - start_ : Duration::Zero();
}

}  // namespace soccluster
