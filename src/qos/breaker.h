// Per-service circuit breaker. Fast-fails calls into a service whose
// recent failure (or shed) rate crossed a threshold, so overload cannot
// cascade: instead of queueing work that will die anyway, callers get an
// immediate rejection while the service drains, then a few half-open
// probes test the water before full traffic resumes.
//
//   closed ──(failure rate ≥ kFailureThreshold over ≥ kMinSamples in one
//             kWindow)──► open
//   open ──(kOpenDuration elapsed, lazily on the next Allow)──► half-open
//   half-open ──(kHalfOpenProbes successes)──► closed
//   half-open ──(any failure)──► open
//
// The state machine never skips half-open on the way back to closed — a
// property test holds it to that. All timing reads the simulator clock, so
// runs are deterministic under a seed; transitions are kept in an
// inspectable history, counted under "qos.breaker.*" {service} metrics,
// and marked as trace instants (passive, like all tracing).

#ifndef SRC_QOS_BREAKER_H_
#define SRC_QOS_BREAKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/digest.h"
#include "src/base/units.h"
#include "src/sim/simulator.h"

namespace soccluster {

class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };
  static const char* StateName(State state);

  struct Transition {
    SimTime time;
    State from;
    State to;
  };

  // Tumbling window over which the failure rate is measured while closed.
  static constexpr Duration kWindow = Duration::Seconds(10);
  // Open when failures/samples in the window reaches this fraction...
  static constexpr double kFailureThreshold = 0.5;
  // ...and the window has at least this many samples.
  static constexpr int kMinSamples = 20;
  // Time spent open before the next Allow() moves to half-open.
  static constexpr Duration kOpenDuration = Duration::Seconds(5);
  // Probes admitted in half-open; this many consecutive successes close.
  static constexpr int kHalfOpenProbes = 3;

  // `service` is the registry label; required.
  CircuitBreaker(Simulator* sim, const std::string& service);
  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  // Admission gate. True: proceed (and report the outcome via
  // RecordSuccess/RecordFailure). False: fast-fail the call. Lazily moves
  // open → half-open once kOpenDuration has elapsed.
  bool Allow();
  void RecordSuccess();
  void RecordFailure();

  State state() const { return state_; }
  const std::vector<Transition>& transitions() const { return transitions_; }
  int64_t opens() const { return opens_; }
  int64_t rejected() const { return rejected_; }

  // Mixes the state machine, window/probe accounting, and the transition
  // history.
  void DigestState(StateDigest& digest) const;

 private:
  void MoveTo(State next);
  void ResetWindow(SimTime now);

  Simulator* sim_;
  State state_ = State::kClosed;
  // Closed-state tumbling window.
  SimTime window_start_;
  int64_t window_samples_ = 0;
  int64_t window_failures_ = 0;
  // Open-state timer.
  SimTime opened_at_;
  // Half-open probe accounting.
  int probes_issued_ = 0;
  int probe_successes_ = 0;
  std::vector<Transition> transitions_;
  int64_t opens_ = 0;
  int64_t rejected_ = 0;
  Counter* opens_metric_;
  Counter* closes_metric_;
  Counter* rejected_metric_;
};

}  // namespace soccluster

#endif  // SRC_QOS_BREAKER_H_
