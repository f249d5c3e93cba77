// Span tracing over simulated time.
//
// A Tracer records begin/end spans stamped with the simulator clock. Spans
// come in two flavors:
//
//   * synchronous spans — nest by time containment on a numbered track
//     (exported as one Perfetto thread per track; use a track per SoC,
//     per device, or 0 for the main track);
//   * async spans — follow one logical operation (a request, a network
//     flow) across callbacks; spans sharing an async id form one group in
//     the Perfetto UI, and nest within the group in begin order.
//
// Recording is passive: nothing feeds back into the simulation, so a run
// is bit-identical with tracing on or off. When the tracer is disabled
// (the default), every call is an inline test of `enabled_` (or of a zero
// span id) that calls nothing and allocates nothing; only recording goes
// out of line. Span ids handed out while disabled are 0 and all operations
// on id 0 are no-ops, so instrumentation never needs its own
// `if (enabled)`.
//
// The span store is bounded (set_max_spans); once full, new spans are
// dropped and counted rather than growing without limit.

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/units.h"

namespace soccluster {

// Index+1 into the tracer's span store; 0 is the invalid/dropped id.
using SpanId = uint64_t;

struct TraceSpan {
  std::string name;
  std::string category;
  int64_t track = 0;     // Synchronous spans: display track.
  uint64_t async_id = 0;  // Nonzero: async span grouped by (category, id).
  SpanId parent = 0;
  SimTime begin;
  SimTime end;
  bool open = true;
  // Small key/value annotations, exported as Perfetto args.
  std::vector<std::pair<std::string, std::string>> args;
};

struct TraceInstant {
  std::string name;
  std::string category;
  int64_t track = 0;
  SimTime time;
};

// One point on a causal chain. A flow links spans across tracks — e.g. one
// request's admission on the service track, its dispatch on a SoC track,
// its retry on another SoC — into a single arrowed path in the Perfetto UI.
// All points of one chain share (category, flow_id).
struct TraceFlow {
  enum class Phase { kBegin, kStep, kEnd };
  std::string name;
  std::string category;
  int64_t track = 0;
  uint64_t flow_id = 0;
  Phase phase = Phase::kStep;
  SimTime time;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Reads span timestamps through `now`; the pointee must outlive the
  // tracer (the Simulator binds its own clock).
  void BindClock(const SimTime* now) { clock_ = now; }

  void Enable() { enabled_ = true; }
  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  // Caps the span store; spans beyond the cap are dropped (counted in
  // dropped_spans()). Instants share the same cap.
  void set_max_spans(size_t max_spans) { max_spans_ = max_spans; }

  // Begins a synchronous span on `track`. Returns 0 when disabled or full.
  SpanId BeginSpan(std::string_view name, std::string_view category,
                   int64_t track = 0, SpanId parent = 0) {
    return enabled_ ? RecordSpan(name, category, track, parent) : 0;
  }
  // Begins an async span grouped by (category, async_id).
  SpanId BeginAsyncSpan(std::string_view name, std::string_view category,
                        uint64_t async_id, SpanId parent = 0) {
    return enabled_ ? RecordAsyncSpan(name, category, async_id, parent) : 0;
  }
  // Closes a span at the current sim time. No-op for id 0.
  void EndSpan(SpanId id) {
    if (id != 0) {
      RecordEnd(id);
    }
  }
  // Attaches a key/value annotation. No-op for id 0.
  void AddArg(SpanId id, std::string_view key, std::string_view value) {
    if (id != 0) {
      RecordArg(id, key, value);
    }
  }
  void AddArg(SpanId id, std::string_view key, double value) {
    if (id != 0) {
      RecordArg(id, key, value);
    }
  }
  void AddArg(SpanId id, std::string_view key, int64_t value) {
    if (id != 0) {
      RecordArg(id, key, value);
    }
  }

  // A zero-duration marker on `track`.
  void Instant(std::string_view name, std::string_view category,
               int64_t track = 0) {
    if (enabled_) {
      RecordInstant(name, category, track);
    }
  }

  // Causal flow points (exported as Perfetto s/t/f events). Chain points by
  // reusing (category, flow_id); begin once, step at each hop, end at the
  // terminal event. Flows share the span cap and the dropped counter.
  void FlowBegin(std::string_view name, std::string_view category,
                 uint64_t flow_id, int64_t track = 0) {
    if (enabled_) {
      RecordFlow(name, category, flow_id, track, TraceFlow::Phase::kBegin);
    }
  }
  void FlowStep(std::string_view name, std::string_view category,
                uint64_t flow_id, int64_t track = 0) {
    if (enabled_) {
      RecordFlow(name, category, flow_id, track, TraceFlow::Phase::kStep);
    }
  }
  void FlowEnd(std::string_view name, std::string_view category,
               uint64_t flow_id, int64_t track = 0) {
    if (enabled_) {
      RecordFlow(name, category, flow_id, track, TraceFlow::Phase::kEnd);
    }
  }

  // Names a synchronous track in the exported trace (e.g. track 7 -> "soc07").
  void SetTrackName(int64_t track, std::string_view name);

  const std::vector<TraceSpan>& spans() const { return spans_; }
  const std::vector<TraceInstant>& instants() const { return instants_; }
  const std::vector<TraceFlow>& flows() const { return flows_; }
  const std::map<int64_t, std::string>& track_names() const {
    return track_names_;
  }
  int64_t dropped_spans() const { return dropped_spans_; }
  size_t open_spans() const { return open_spans_; }

  // Drops all recorded spans/instants (not track names or enablement).
  void Clear();

 private:
  SimTime NowForSpan() const;
  bool Full() const {
    return spans_.size() + instants_.size() + flows_.size() >= max_spans_;
  }
  // Out-of-line recorders behind the inline enablement tests above.
  SpanId RecordSpan(std::string_view name, std::string_view category,
                    int64_t track, SpanId parent);
  SpanId RecordAsyncSpan(std::string_view name, std::string_view category,
                         uint64_t async_id, SpanId parent);
  void RecordEnd(SpanId id);
  void RecordArg(SpanId id, std::string_view key, std::string_view value);
  void RecordArg(SpanId id, std::string_view key, double value);
  void RecordArg(SpanId id, std::string_view key, int64_t value);
  void RecordInstant(std::string_view name, std::string_view category,
                     int64_t track);
  void RecordFlow(std::string_view name, std::string_view category,
                  uint64_t flow_id, int64_t track, TraceFlow::Phase phase);

  bool enabled_ = false;
  const SimTime* clock_ = nullptr;
  size_t max_spans_ = 2000000;
  std::vector<TraceSpan> spans_;
  std::vector<TraceInstant> instants_;
  std::vector<TraceFlow> flows_;
  std::map<int64_t, std::string> track_names_;
  int64_t dropped_spans_ = 0;
  size_t open_spans_ = 0;
};

// RAII span for code where begin and end share one scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, std::string_view category,
             int64_t track = 0, SpanId parent = 0)
      : tracer_(tracer),
        id_(tracer->BeginSpan(name, category, track, parent)) {}
  ~ScopedSpan() { tracer_->EndSpan(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  SpanId id() const { return id_; }

 private:
  Tracer* tracer_;
  SpanId id_;
};

}  // namespace soccluster

#endif  // SRC_OBS_TRACE_H_
