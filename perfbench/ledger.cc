#include "perfbench/ledger.h"

#include <chrono>
#include <cstdlib>
#include <new>
#include <string_view>

#include "src/base/check.h"

namespace {

// Counting is on only while a traced event runs; everything else the
// process allocates (set-up, the ledger's bookkeeping) stays out.
bool g_count_allocations = false;
int64_t g_allocations = 0;

void* CountedAlloc(std::size_t size) {
  if (g_count_allocations) {
    ++g_allocations;
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

namespace {

struct PrefixLayer {
  std::string_view prefix;
  Layer layer;
};

// Label prefix (text before the first dot) -> owning layer.
constexpr PrefixLayer kPrefixes[] = {
    {"session", Layer::kTrace},       {"source", Layer::kTrace},
    {"dl", Layer::kWorkload},         {"video", Layer::kWorkload},
    {"serverless", Layer::kWorkload}, {"gaming", Layer::kWorkload},
    {"brownout", Layer::kQos},        {"qos", Layer::kQos},
    {"sched", Layer::kSched},         {"obs", Layer::kObs},
    {"health", Layer::kCore},         {"gray", Layer::kCore},
    {"overload", Layer::kCore},       {"orchestrator", Layer::kCore},
    {"chaos", Layer::kCore},          {"telemetry", Layer::kCore},
    {"autoscaler", Layer::kCore},     {"net", Layer::kNet},
    {"bmc", Layer::kCluster},         {"cluster", Layer::kCluster},
    {"fault", Layer::kCluster},       {"soc", Layer::kCluster},
};

// The layer owning events labeled `label`, by the prefix before the first
// dot; kUnlabeled for "".
Layer LayerOfLabel(std::string_view label) {
  if (label.empty()) {
    return Layer::kUnlabeled;
  }
  const std::string_view prefix = label.substr(0, label.find('.'));
  for (const PrefixLayer& entry : kPrefixes) {
    if (entry.prefix == prefix) {
      return entry.layer;
    }
  }
  return Layer::kScenario;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kTrace:
      return "trace";
    case Layer::kWorkload:
      return "workload";
    case Layer::kQos:
      return "qos";
    case Layer::kSched:
      return "sched";
    case Layer::kObs:
      return "obs";
    case Layer::kCore:
      return "core";
    case Layer::kNet:
      return "net";
    case Layer::kCluster:
      return "cluster";
    case Layer::kScenario:
      return "scenario";
    case Layer::kUnlabeled:
    case Layer::kCount:
      break;
  }
  return "unlabeled";
}

int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Ledger::Ledger(size_t outcome_cap) : outcome_cap_(outcome_cap) {
  // Pre-size everything the hot path appends to, so the ledger itself
  // never allocates while counting is on.
  stack_.reserve(64);
  outcomes_.reserve(outcome_cap_);
}

void Ledger::Push(Layer layer) {
  stack_.push_back(Frame{HostNowNs(), 0, layer});
}

int64_t Ledger::Pop() {
  const Frame frame = stack_.back();
  stack_.pop_back();
  const int64_t elapsed = HostNowNs() - frame.start_ns;
  if (!stack_.empty()) {
    stack_.back().child_ns += elapsed;
    // Only spans nest inside an event; the event frame itself is charged
    // by RunUntil once its label is known.
    self_ns_[static_cast<size_t>(frame.layer)] += elapsed - frame.child_ns;
    span_ns_[static_cast<size_t>(frame.layer)] += elapsed;
  }
  return elapsed - frame.child_ns;
}

void Ledger::RunUntil(soccluster::Simulator* sim, soccluster::SimTime until) {
  using soccluster::SimTime;
  // libstdc++ keeps strings up to its SSO capacity inline; longer labels
  // cost RecordFiredEvents one allocation, which is not the library's.
  static const size_t kInlineLabel = std::string().capacity();
  bool stopped = false;
  sim->ScheduleAt(until, [&stopped] { stopped = true; }, "perfbench.stop");
  while (!stopped) {
    sim->RecordFiredEvents(sim->Now(), SimTime::Max(), /*cap=*/1);
    const int64_t allocs_before = g_allocations;
    Push(Layer::kUnlabeled);
    g_count_allocations = true;
    const bool fired = sim->Step();
    g_count_allocations = false;
    const int64_t self = Pop();
    if (!fired) {
      break;
    }
    static const std::string kNoLabel;
    const std::string& label = sim->fired_events().empty()
                                   ? kNoLabel
                                   : sim->fired_events().front().label;
    int64_t allocs = g_allocations - allocs_before;
    if (label.size() > kInlineLabel) {
      --allocs;
    }
    allocations_ += allocs;
    ++events_;
    self_ns_[static_cast<size_t>(LayerOfLabel(label))] += self;
    LabelStat& stat = labels_[label];
    ++stat.events;
    stat.self_ns += self;
  }
  // Events at exactly `until` scheduled after the stop event.
  SOC_CHECK(sim->RunUntil(until).ok());
}

}  // namespace perfbench
