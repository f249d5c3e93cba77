// Metrics registry: named counters, gauges, histograms, and sim-time series
// shared by every subsystem.
//
// Naming convention: dotted lowercase paths, subsystem first —
// "sim.events_processed", "cluster.power_watts", "dl.serving.latency_ms".
// Units are part of the name where ambiguity is possible (…_watts, …_ms,
// …_gbps). Labels carry cardinality (e.g. {{"soc", "7"}}), never units.
//
// Hot-path cost: instruments are looked up once (Get* returns a pointer that
// stays valid for the registry's lifetime) and updated via a single add or
// store. Snapshot/export never perturbs the instruments.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/stats.h"
#include "src/base/units.h"
#include "src/obs/sketch.h"

namespace soccluster {

// Ordered key=value pairs identifying one instrument of a named metric.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

// Monotonically increasing integer.
class Counter {
 public:
  void Increment() { ++value_; }
  void Add(int64_t delta) { value_ += delta; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

// Last-write-wins scalar, with a convenience high-water update.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void SetMax(double v) {
    if (v > value_) {
      value_ = v;
    }
  }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Distribution of observed values: streaming moments (count, mean, min,
// max, stddev) plus a fixed-memory quantile sketch for percentiles, so every
// registry histogram stays O(buckets) however many values it observes.
// Percentiles are within the sketch's 1% relative-error bound; callers that
// need exact percentiles keep their own samples.
class HistogramMetric {
 public:
  void Observe(double x) {
    running_.Add(x);
    sketch_.Add(x);
  }

  // Percentile in [0, 100], relative-error-bounded; 0 before any Observe.
  double Percentile(double p) const { return sketch_.Percentile(p); }

  const RunningStat& running() const { return running_; }
  const QuantileSketch& sketch() const { return sketch_; }
  int64_t count() const { return running_.count(); }

 private:
  RunningStat running_;
  QuantileSketch sketch_;
};

// An appended (sim-time, value) series, e.g. a sampled power trace. Exported
// as a Perfetto counter track.
struct SeriesPoint {
  SimTime time;
  double value = 0.0;
};

// Memory is bounded: when the stored point count reaches max_points the
// series halves itself (keeping every other point) and doubles its keep
// stride, so long chaos runs converge to a uniformly thinned view of the
// full timeline. Downsampling is purely a function of the append sequence —
// deterministic, and invisible to the simulation (observers-only state).
class TimeSeries {
 public:
  // Default cap: ~1M points (8 MiB of SeriesPoint) — far above anything the
  // committed benches produce (a 1 Hz day-long trace is 86400 points), so
  // existing outputs are unchanged, while a 90-day run stays bounded.
  static constexpr size_t kDefaultMaxPoints = size_t{1} << 20;

  void Append(SimTime t, double v) {
    ++seen_;
    if (stride_ > 1 && seen_ % stride_ != 1) {
      ++dropped_points_;
      return;
    }
    points_.push_back(SeriesPoint{t, v});
    if (points_.size() >= max_points_) {
      Halve();
    }
  }
  const std::vector<SeriesPoint>& points() const { return points_; }
  size_t size() const { return points_.size(); }

  // Points thinned away by the cap (0 until the cap is first reached).
  int64_t dropped_points() const { return dropped_points_; }
  // Current keep stride: 1 point kept per `stride` appends.
  int64_t stride() const { return stride_; }
  // Adjusts the cap (floored at 2). Takes effect on the next Append.
  void set_max_points(size_t max_points) {
    max_points_ = max_points < 2 ? 2 : max_points;
  }

 private:
  void Halve() {
    // Keep even-indexed points (the 1st, 3rd, ... of each stride epoch so
    // the first-ever point always survives), then accept half the rate.
    size_t kept = 0;
    for (size_t i = 0; i < points_.size(); i += 2) {
      points_[kept++] = points_[i];
    }
    dropped_points_ += static_cast<int64_t>(points_.size() - kept);
    points_.resize(kept);
    stride_ *= 2;
  }

  std::vector<SeriesPoint> points_;
  size_t max_points_ = kDefaultMaxPoints;
  int64_t seen_ = 0;
  int64_t stride_ = 1;
  int64_t dropped_points_ = 0;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Finds or creates the instrument for (name, labels). The returned pointer
  // stays valid for the registry's lifetime — cache it on hot paths. A name
  // must keep one instrument kind; a kind mismatch CHECK-fails.
  Counter* GetCounter(std::string_view name, MetricLabels labels = {});
  Gauge* GetGauge(std::string_view name, MetricLabels labels = {});
  HistogramMetric* GetHistogram(std::string_view name, MetricLabels labels = {});
  TimeSeries* GetTimeSeries(std::string_view name, MetricLabels labels = {});

  // One registered instrument, visited in registration order (deterministic
  // for a deterministic program).
  struct Entry {
    std::string name;
    MetricLabels labels;
    const Counter* counter = nullptr;          // Set for counters.
    const Gauge* gauge = nullptr;              // Set for gauges.
    const HistogramMetric* histogram = nullptr;  // Set for histograms.
    const TimeSeries* series = nullptr;        // Set for time series.
  };
  std::vector<Entry> Entries() const;
  size_t size() const { return instruments_.size(); }

  // Snapshot writers. WriteJson emits one JSON array; WriteJsonl emits one
  // JSON object per line (the CI-diffable format). Time-series points are
  // included in full.
  void WriteJson(std::ostream& out) const;
  void WriteJsonl(std::ostream& out) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kSeries };
  struct Instrument {
    std::string name;
    MetricLabels labels;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
    std::unique_ptr<TimeSeries> series;
  };

  Instrument* FindOrCreate(std::string_view name, MetricLabels labels,
                           Kind kind);
  static std::string InstrumentKey(std::string_view name,
                                   const MetricLabels& labels);

  // Insertion-ordered storage plus a key index for O(log n) lookup.
  std::vector<std::unique_ptr<Instrument>> instruments_;
  std::map<std::string, Instrument*> by_key_;
};

}  // namespace soccluster

#endif  // SRC_OBS_METRICS_H_
