#include "src/obs/trace.h"

#include "src/base/check.h"
#include "src/obs/json.h"

namespace soccluster {

SimTime Tracer::NowForSpan() const {
  SOC_CHECK(clock_ != nullptr) << "Tracer used before BindClock()";
  return *clock_;
}

SpanId Tracer::RecordSpan(std::string_view name, std::string_view category,
                          int64_t track, SpanId parent) {
  if (Full()) {
    ++dropped_spans_;
    return 0;
  }
  TraceSpan span;
  span.name = std::string(name);
  span.category = std::string(category);
  span.track = track;
  span.parent = parent;
  span.begin = NowForSpan();
  span.end = span.begin;
  spans_.push_back(std::move(span));
  ++open_spans_;
  return static_cast<SpanId>(spans_.size());
}

SpanId Tracer::RecordAsyncSpan(std::string_view name,
                               std::string_view category, uint64_t async_id,
                               SpanId parent) {
  SOC_DCHECK(async_id != 0) << "async spans need a nonzero id";
  const SpanId id = RecordSpan(name, category, /*track=*/0, parent);
  if (id != 0) {
    spans_[id - 1].async_id = async_id;
  }
  return id;
}

void Tracer::RecordEnd(SpanId id) {
  SOC_CHECK_LE(id, spans_.size()) << "unknown span id";
  TraceSpan& span = spans_[id - 1];
  SOC_CHECK(span.open) << "span '" << span.name << "' ended twice";
  span.end = NowForSpan();
  span.open = false;
  --open_spans_;
}

void Tracer::RecordArg(SpanId id, std::string_view key,
                       std::string_view value) {
  SOC_CHECK_LE(id, spans_.size()) << "unknown span id";
  spans_[id - 1].args.emplace_back(std::string(key), std::string(value));
}

void Tracer::RecordArg(SpanId id, std::string_view key, double value) {
  RecordArg(id, key, std::string_view(JsonNumber(value)));
}

void Tracer::RecordArg(SpanId id, std::string_view key, int64_t value) {
  RecordArg(id, key, std::string_view(std::to_string(value)));
}

void Tracer::RecordInstant(std::string_view name, std::string_view category,
                           int64_t track) {
  if (Full()) {
    ++dropped_spans_;
    return;
  }
  TraceInstant instant;
  instant.name = std::string(name);
  instant.category = std::string(category);
  instant.track = track;
  instant.time = NowForSpan();
  instants_.push_back(std::move(instant));
}

void Tracer::RecordFlow(std::string_view name, std::string_view category,
                        uint64_t flow_id, int64_t track,
                        TraceFlow::Phase phase) {
  SOC_DCHECK(flow_id != 0) << "flow points need a nonzero id";
  if (Full()) {
    ++dropped_spans_;
    return;
  }
  TraceFlow flow;
  flow.name = std::string(name);
  flow.category = std::string(category);
  flow.track = track;
  flow.flow_id = flow_id;
  flow.phase = phase;
  flow.time = NowForSpan();
  flows_.push_back(std::move(flow));
}

void Tracer::SetTrackName(int64_t track, std::string_view name) {
  track_names_[track] = std::string(name);
}

void Tracer::Clear() {
  spans_.clear();
  instants_.clear();
  flows_.clear();
  dropped_spans_ = 0;
  open_spans_ = 0;
}

}  // namespace soccluster
