#include "src/obs/metrics.h"

#include "src/base/check.h"
#include "src/obs/json.h"

namespace soccluster {
namespace {

const char* KindName(bool counter, bool gauge, bool histogram) {
  if (counter) {
    return "counter";
  }
  if (gauge) {
    return "gauge";
  }
  if (histogram) {
    return "histogram";
  }
  return "series";
}

void WriteLabels(JsonWriter* w, const MetricLabels& labels) {
  if (labels.empty()) {
    return;
  }
  w->Key("labels");
  w->BeginObject();
  for (const auto& [key, value] : labels) {
    w->KeyValue(key, std::string_view(value));
  }
  w->EndObject();
}

void WriteEntry(JsonWriter* w, const MetricRegistry::Entry& entry) {
  w->BeginObject();
  w->KeyValue("name", std::string_view(entry.name));
  w->KeyValue("kind", KindName(entry.counter != nullptr,
                               entry.gauge != nullptr,
                               entry.histogram != nullptr));
  WriteLabels(w, entry.labels);
  if (entry.counter != nullptr) {
    w->KeyValue("value", entry.counter->value());
  } else if (entry.gauge != nullptr) {
    w->KeyValue("value", entry.gauge->value());
  } else if (entry.histogram != nullptr) {
    const RunningStat& running = entry.histogram->running();
    w->KeyValue("count", running.count());
    w->KeyValue("mean", running.mean());
    w->KeyValue("min", running.min());
    w->KeyValue("max", running.max());
    w->KeyValue("stddev", running.StdDev());
    if (running.count() > 0) {
      w->KeyValue("p50", entry.histogram->Percentile(50.0));
      w->KeyValue("p90", entry.histogram->Percentile(90.0));
      w->KeyValue("p99", entry.histogram->Percentile(99.0));
      w->KeyValue("p999", entry.histogram->Percentile(99.9));
    }
    w->KeyValue("sketch_buckets",
                static_cast<int64_t>(entry.histogram->sketch().bucket_count()));
  } else if (entry.series != nullptr) {
    w->KeyValue("count", static_cast<int64_t>(entry.series->size()));
    if (entry.series->dropped_points() > 0) {
      w->KeyValue("dropped_points", entry.series->dropped_points());
      w->KeyValue("stride", entry.series->stride());
    }
    w->Key("points");
    w->BeginArray();
    for (const SeriesPoint& point : entry.series->points()) {
      w->BeginArray();
      w->Value(point.time.ToSeconds());
      w->Value(point.value);
      w->EndArray();
    }
    w->EndArray();
  }
  w->EndObject();
}

}  // namespace

std::string MetricRegistry::InstrumentKey(std::string_view name,
                                          const MetricLabels& labels) {
  std::string key(name);
  for (const auto& [label, value] : labels) {
    key.push_back('\x1f');  // Unit separator: cannot appear in identifiers.
    key.append(label);
    key.push_back('=');
    key.append(value);
  }
  return key;
}

MetricRegistry::Instrument* MetricRegistry::FindOrCreate(std::string_view name,
                                                         MetricLabels labels,
                                                         Kind kind) {
  SOC_CHECK(!name.empty()) << "metric name must not be empty";
  std::string key = InstrumentKey(name, labels);
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    SOC_CHECK(it->second->kind == kind)
        << "metric " << std::string(name) << " re-registered as a different kind";
    return it->second;
  }
  auto instrument = std::make_unique<Instrument>();
  instrument->name = std::string(name);
  instrument->labels = std::move(labels);
  instrument->kind = kind;
  switch (kind) {
    case Kind::kCounter:
      instrument->counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      instrument->gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      instrument->histogram = std::make_unique<HistogramMetric>();
      break;
    case Kind::kSeries:
      instrument->series = std::make_unique<TimeSeries>();
      break;
  }
  Instrument* raw = instrument.get();
  instruments_.push_back(std::move(instrument));
  by_key_.emplace(std::move(key), raw);
  return raw;
}

Counter* MetricRegistry::GetCounter(std::string_view name,
                                    MetricLabels labels) {
  return FindOrCreate(name, std::move(labels), Kind::kCounter)->counter.get();
}

Gauge* MetricRegistry::GetGauge(std::string_view name, MetricLabels labels) {
  return FindOrCreate(name, std::move(labels), Kind::kGauge)->gauge.get();
}

HistogramMetric* MetricRegistry::GetHistogram(std::string_view name,
                                              MetricLabels labels) {
  return FindOrCreate(name, std::move(labels), Kind::kHistogram)
      ->histogram.get();
}

TimeSeries* MetricRegistry::GetTimeSeries(std::string_view name,
                                          MetricLabels labels) {
  return FindOrCreate(name, std::move(labels), Kind::kSeries)->series.get();
}

std::vector<MetricRegistry::Entry> MetricRegistry::Entries() const {
  std::vector<Entry> entries;
  entries.reserve(instruments_.size());
  for (const auto& instrument : instruments_) {
    Entry entry;
    entry.name = instrument->name;
    entry.labels = instrument->labels;
    entry.counter = instrument->counter.get();
    entry.gauge = instrument->gauge.get();
    entry.histogram = instrument->histogram.get();
    entry.series = instrument->series.get();
    entries.push_back(std::move(entry));
  }
  return entries;
}

void MetricRegistry::WriteJson(std::ostream& out) const {
  JsonWriter w(&out);
  w.BeginArray();
  for (const Entry& entry : Entries()) {
    WriteEntry(&w, entry);
  }
  w.EndArray();
  out << "\n";
}

void MetricRegistry::WriteJsonl(std::ostream& out) const {
  for (const Entry& entry : Entries()) {
    JsonWriter w(&out);
    WriteEntry(&w, entry);
    out << "\n";
  }
}

}  // namespace soccluster
