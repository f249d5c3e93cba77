// Statistical accumulators used by the measurement harness: streaming
// moments, sample percentiles, and time-weighted averages (the latter back
// the power/utilization integration).

#ifndef SRC_BASE_STATS_H_
#define SRC_BASE_STATS_H_

#include <cstddef>
#include <vector>

#include "src/base/units.h"

namespace soccluster {

// Streaming count/mean/variance/min/max (Welford's algorithm).
class RunningStat {
 public:
  void Add(double x);
  void Merge(const RunningStat& other);

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }
  double Variance() const;
  double StdDev() const;

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Stores samples and answers percentile queries. Suited to the sample counts
// this project produces (thousands to low millions).
class SampleStats {
 public:
  void Add(double x);
  void Reserve(size_t n) { samples_.reserve(n); }

  size_t count() const { return samples_.size(); }
  double Mean() const;
  double Min() const;
  double Max() const;
  // Linear-interpolated percentile, p in [0, 100].
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }

  // Samples in insertion order (stable across percentile queries).
  const std::vector<double>& samples() const { return samples_; }

 private:
  void SortIfNeeded() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;  // Lazily rebuilt sorted view.
  mutable bool sorted_valid_ = false;
};

// Time-weighted mean of a piecewise-constant signal, e.g. instantaneous
// power. Call Update(t, v) at every change; the value v holds from t until
// the next update. Finalize with Close(t_end).
class TimeWeightedStat {
 public:
  void Update(SimTime now, double value);
  void Close(SimTime end);

  // Integral of the signal over observed time (value-units x seconds).
  double Integral() const { return integral_; }
  // Integral / elapsed seconds.
  double Mean() const;
  double CurrentValue() const { return value_; }
  Duration Elapsed() const;

 private:
  void Advance(SimTime now);

  bool started_ = false;
  SimTime start_;
  SimTime last_;
  double value_ = 0.0;
  double integral_ = 0.0;
};

}  // namespace soccluster

#endif  // SRC_BASE_STATS_H_
