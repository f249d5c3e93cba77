// Host-time ledger for a traced benchmark run, measured from outside the
// library through public API only.
//
// Ledger::RunUntil advances the simulator one event at a time and charges
// each event's host time to the layer named by its label's prefix
// ("session.*" -> trace, "dl.serving.*" -> workload, "health.*" -> core,
// ...). Simulator::RecordFiredEvents exposes the label of the event a
// Step() fired; unlabeled events land in their own bucket. Spans carve the
// runner's own calls into a layer (the Submit hook, the client observer)
// out of the enclosing event, so each layer gets self time.
//
// Allocation counting: a replaced global operator new counts allocations
// while an event runs in a traced run. Allocations the ledger makes itself
// are excluded, including the label copy RecordFiredEvents makes per event.

#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/simulator.h"

namespace perfbench {

enum class Layer {
  kTrace = 0,
  kWorkload,
  kQos,
  kSched,
  kObs,
  kCore,
  kNet,
  kCluster,
  kScenario,  // Events the scenario itself schedules (faults, probes).
  kUnlabeled,
  kCount,
};
constexpr size_t kNumLayers = static_cast<size_t>(Layer::kCount);

const char* LayerName(Layer layer);

// Monotonic host clock, in nanoseconds.
int64_t HostNowNs();

class Ledger {
 public:
  struct LabelStat {
    int64_t events = 0;
    int64_t self_ns = 0;
  };

  // A runner-made call into `layer`, nested inside the current event. A
  // null ledger makes the span a no-op, so untraced runs share the code.
  class Span {
   public:
    Span(Ledger* ledger, Layer layer) : ledger_(ledger) {
      if (ledger_ != nullptr) {
        ledger_->Push(layer);
      }
    }
    ~Span() {
      if (ledger_ != nullptr) {
        ledger_->Pop();
      }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Ledger* ledger_;
  };

  // Keeps at most `outcome_cap` entries of the completion stream.
  explicit Ledger(size_t outcome_cap);

  // Advances `sim` to `until` with RunUntil semantics, one timed event at a
  // time. A stop event scheduled at `until` bounds the stepping, because
  // Step() cannot peek; Harness::Advance schedules the same event in
  // untraced runs so both fire the identical event sequence.
  void RunUntil(soccluster::Simulator* sim, soccluster::SimTime until);

  // Appends one request outcome to the completion stream the SLO kernel
  // replays.
  void RecordOutcome(soccluster::SimTime t, bool good) {
    if (outcomes_.size() < outcome_cap_) {
      outcomes_.push_back(t.nanos() * 2 + (good ? 1 : 0));
    }
  }
  const std::vector<int64_t>& outcomes() const { return outcomes_; }

  double self_s(Layer layer) const {
    return static_cast<double>(self_ns_[static_cast<size_t>(layer)]) * 1e-9;
  }
  double span_s(Layer layer) const {
    return static_cast<double>(span_ns_[static_cast<size_t>(layer)]) * 1e-9;
  }
  int64_t events() const { return events_; }
  int64_t allocations() const { return allocations_; }
  const std::map<std::string, LabelStat>& labels() const { return labels_; }

 private:
  struct Frame {
    int64_t start_ns = 0;
    int64_t child_ns = 0;
    Layer layer = Layer::kUnlabeled;
  };
  void Push(Layer layer);
  // Closes the innermost frame and returns its self time.
  int64_t Pop();

  std::vector<Frame> stack_;
  std::array<int64_t, kNumLayers> self_ns_{};
  std::array<int64_t, kNumLayers> span_ns_{};
  std::map<std::string, LabelStat> labels_;
  std::vector<int64_t> outcomes_;  // time_ns * 2 + good.
  size_t outcome_cap_;
  int64_t events_ = 0;
  int64_t allocations_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
