// One request lifecycle for the request-serving services (DL serving, live
// transcoding, serverless). Each admits, queues and runs requests its own
// way; what a terminal outcome means is decided here, once:
//
//   * per-class outcome counts, per-cause totals, and the service's
//     registry counters under their existing names;
//   * the per-class latency SLOs ("<service>/<class>"): a completion is
//     good iff it meets the threshold, every other outcome is bad (a
//     breaker fast-fail never entered the service and is not sampled);
//   * the exactly-once ClientObserver report of attributed requests, and
//     the AttemptObserver evidence tap for gray-failure detection;
//   * one breaker rule: success on completion, failure on abandonment and
//     on queue-full drops. Floors, deadlines and capacity rejections are
//     policy, not distress;
//   * the terminal flow-trace close of the request's causal chain.
//
// Passive like the admission queue: it schedules nothing and draws no
// randomness; owners fold its counts into their own digests.

#ifndef SRC_QOS_REQUEST_LEDGER_H_
#define SRC_QOS_REQUEST_LEDGER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <numeric>
#include <string>
#include <utility>

#include "src/base/client.h"
#include "src/base/priority.h"
#include "src/obs/request.h"
#include "src/obs/slo.h"
#include "src/qos/admission.h"
#include "src/qos/breaker.h"
#include "src/sim/simulator.h"

namespace soccluster {

class RequestLedger {
 public:
  // Per-attempt evidence: serving SoC, the attempt's own latency, success.
  // DegradationScorer (src/core/graydetect.h) owns the per-SoC aggregation.
  using AttemptObserver =
      std::function<void(int soc_index, Duration latency, bool ok)>;

  // Why a request left its service. The first three mirror
  // AdmissionQueue::DropReason; the client sees kCompleted as success,
  // kFailed as failure, kExpired as expiry and everything else as shed.
  enum class Cause {
    kQueueFull,
    kAdmitFloor,
    kExpired,  // Purged at dispatch past its deadline.
    kCompleted,
    kFailed,      // Abandoned after server-side failures.
    kBreaker,     // Fast-failed at the door by an open breaker.
    kNoCapacity,  // Placement found no SoC with room.
  };
  static constexpr size_t kNumCauses = 7;
  static Cause FromDrop(AdmissionQueue::DropReason reason) {
    using R = AdmissionQueue::DropReason;
    static_assert(static_cast<int>(R::kQueueFull) == 0 &&
                  static_cast<int>(R::kAdmitFloor) == 1 &&
                  static_cast<int>(R::kExpired) == 2);
    return static_cast<Cause>(reason);
  }
  static ClientOutcome OutcomeOf(Cause cause);

  struct Options {
    std::string service;  // SLO service label and name prefix; required.
    Duration slo_threshold = Duration::Seconds(2);
    // Registry counter names, null: unpublished. Names may repeat.
    // `rejected` takes kNoCapacity, `shed` every other shed cause.
    const char* submitted = nullptr;
    const char* completed = nullptr;
    const char* shed = nullptr;
    const char* expired = nullptr;
    const char* failed = nullptr;
    const char* rejected = nullptr;
  };

  // What the ledger needs of a request at its terminal outcome. `ctx` is
  // the chain to close: null when there is none yet, or when it outlives
  // the request (live streams close it at stop, via CloseFlow).
  struct Request {
    Priority priority = Priority::kStandard;
    SimTime enqueue;
    ClientAttribution client;
    RequestContext* ctx = nullptr;
  };

  RequestLedger(Simulator* sim, Options options);
  RequestLedger(const RequestLedger&) = delete;
  RequestLedger& operator=(const RequestLedger&) = delete;

  void SetClientObserver(ClientObserver observer) {
    client_observer_ = std::move(observer);
  }
  void SetAttemptObserver(AttemptObserver observer) {
    attempt_observer_ = std::move(observer);
  }
  // Borrowed; null disables.
  void SetBreaker(CircuitBreaker* breaker) { breaker_ = breaker; }

  void Submit(Priority priority);
  // False while the breaker fast-fails `priority` (critical always passes);
  // the caller then finishes the request with Cause::kBreaker.
  bool BreakerAdmits(Priority priority) {
    return breaker_ == nullptr || priority == Priority::kCritical ||
           breaker_->Allow();
  }
  // Books the terminal outcome: counts, breaker rule, flow close on
  // `track`, and for every cause but kCompleted the bad SLO sample and the
  // client report. A completion reports those through Deliver(), now or
  // when its response lands.
  void Finish(Cause cause, const Request& request, int64_t track = 0);
  // SLO sample and client success, with latency from enqueue to now.
  void Deliver(const Request& request);
  void Complete(const Request& request, int64_t track = 0) {
    Finish(Cause::kCompleted, request, track);
    Deliver(request);
  }
  void ReportAttempt(int soc_index, Duration latency, bool ok) {
    if (attempt_observer_) {
      attempt_observer_(soc_index, latency, ok);
    }
  }
  void CloseFlow(RequestContext* ctx, bool completed, int64_t track = 0);

  int64_t completed() const { return Total(ClientOutcome::kSuccess); }
  int64_t shed() const { return Total(ClientOutcome::kShed); }
  int64_t expired() const { return Total(ClientOutcome::kExpired); }
  int64_t failed() const { return Total(ClientOutcome::kFailed); }
  int64_t Count(ClientOutcome outcome, Priority priority) const {
    return by_class_[Index(priority)][static_cast<size_t>(outcome)];
  }
  int64_t CountOf(Cause cause) const {
    return by_cause_[static_cast<size_t>(cause)];
  }
  // Drops by admission policy: floor, breaker, queue pressure, expiry.
  int64_t policy_drops() const {
    return shed() + expired() - CountOf(Cause::kNoCapacity);
  }
  int64_t submitted() const {
    return std::accumulate(submitted_.begin(), submitted_.end(), int64_t{0});
  }
  int64_t submitted(Priority priority) const {
    return submitted_[Index(priority)];
  }
  // Submitted, not yet finished.
  int64_t pending(Priority priority) const {
    const auto& finished = by_class_[Index(priority)];
    return submitted(priority) -
           std::accumulate(finished.begin(), finished.end(), int64_t{0});
  }

  SloTracker* slo_of(Priority priority) { return slos_[Index(priority)]; }

 private:
  static size_t Index(Priority priority) {
    return static_cast<size_t>(priority);
  }
  int64_t Total(ClientOutcome outcome) const;
  void Notify(const Request& request, ClientOutcome outcome);

  Simulator* sim_;
  CircuitBreaker* breaker_ = nullptr;
  ClientObserver client_observer_;    // Null: no client tier attached.
  AttemptObserver attempt_observer_;  // Null: no evidence tap.
  std::array<int64_t, kNumPriorities> submitted_{};
  std::array<std::array<int64_t, 4>, kNumPriorities> by_class_{};
  std::array<int64_t, kNumCauses> by_cause_{};
  std::array<SloTracker*, kNumPriorities> slos_{};
  Counter* submitted_metric_ = nullptr;
  std::array<Counter*, kNumCauses> cause_metrics_{};
};

}  // namespace soccluster

#endif  // SRC_QOS_REQUEST_LEDGER_H_
