#include "src/obs/bench_report.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "src/base/check.h"
#include "src/base/digest.h"
#include "src/base/log.h"
#include "src/obs/json.h"

namespace soccluster {

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {
  SOC_CHECK(!name_.empty());
}

BenchReport::~BenchReport() {
  if (!written_) {
    const Status status = WriteNow();
    if (!status.ok()) {
      SOC_LOG(Warning) << "bench report not written: " << status.ToString();
    }
  }
}

void BenchReport::SetParam(std::string key, std::string value) {
  params_.emplace_back(std::move(key),
                       "\"" + JsonEscape(value) + "\"");
}

void BenchReport::SetParam(std::string key, double value) {
  params_.emplace_back(std::move(key), JsonNumber(value));
}

void BenchReport::SetParam(std::string key, int64_t value) {
  params_.emplace_back(std::move(key), std::to_string(value));
}

void BenchReport::Add(std::string metric, double value, std::string units) {
  metrics_.push_back(Metric{std::move(metric), value, std::move(units)});
}

void BenchReport::Claim(bool holds, const char* format, ...) {
  if (holds) {
    return;
  }
  ++claims_failed_;
  std::fputs("claim failed: ", stderr);
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
}

std::string BenchReport::OutputPath() const {
  std::string dir;
  if (const char* env = std::getenv("SOC_BENCH_OUT_DIR"); env != nullptr) {
    dir = env;
    if (!dir.empty() && dir.back() != '/') {
      dir.push_back('/');
    }
  }
  return dir + "BENCH_" + name_ + ".json";
}

uint64_t BenchReport::Digest() const {
  StateDigest digest;
  digest.Mix(std::string_view(name_));
  digest.Mix(static_cast<uint64_t>(params_.size()));
  for (const auto& [key, encoded] : params_) {
    digest.Mix(std::string_view(key));
    digest.Mix(std::string_view(encoded));
  }
  digest.Mix(static_cast<uint64_t>(metrics_.size()));
  for (const Metric& metric : metrics_) {
    digest.Mix(std::string_view(metric.name));
    digest.Mix(metric.value);
    digest.Mix(std::string_view(metric.units));
  }
  return digest.value();
}

Status BenchReport::WriteNow() {
  written_ = true;
  return WriteTo(OutputPath());
}

Status BenchReport::WriteTo(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::InvalidArgument("cannot open " + path);
  }
  JsonWriter w(&out);
  w.BeginObject();
  w.KeyValue("name", std::string_view(name_));
  w.Key("params");
  w.BeginObject();
  for (const auto& [key, encoded] : params_) {
    w.Key(key);
    w.RawValue(encoded);
  }
  w.EndObject();
  w.Key("metrics");
  w.BeginArray();
  for (const Metric& metric : metrics_) {
    w.BeginObject();
    w.KeyValue("metric", std::string_view(metric.name));
    w.KeyValue("value", metric.value);
    w.KeyValue("units", std::string_view(metric.units));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  out << "\n";
  out.flush();
  if (!out.good()) {
    return Status::Internal("failed writing " + path);
  }
  return Status::Ok();
}

}  // namespace soccluster
