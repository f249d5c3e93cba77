// Open-loop load generation primitives (ROADMAP item 5).
//
// Closed-loop drivers self-throttle: a caller that waits for completions
// slows down exactly when the cluster is overloaded, which hides the
// failure modes production traffic exhibits. Everything here is open-loop
// — arrivals are generated by a process, not by completions — in the
// Click-`RatedSource` tradition: a source is a counter plus one pending
// event, never a thread or a per-request object.
//
//   OpenLoopSource   homogeneous Poisson arrivals at a fixed rate
//   DiurnalShape     raised-cosine day curve with a regional phase offset
//                    (the paper's Fig. 5 shape; peak/trough up to ~25x)
//   FlashCrowd       multiplicative spike overlay: linear ramp, hold,
//                    exponential decay (livestream event landing on a peak)
//   RateProcess      composition of the above, sampled as rate(t) for
//                    NHPP thinning; NextArrival is the one thinning loop
//                    (the session tier's cohorts and the Fig. 5 gaming
//                    trace both draw their arrivals through it), and
//                    Below(t, x) answers its test exactly while evaluating
//                    rate(t) only when a per-segment envelope on the day
//                    curve cannot decide it
//
// Arrival-process policy: this file is where arrival processes live; the
// session tier and the gaming trace draw theirs through NextArrival. An
// Exponential-draw arrival loop anywhere else under src/{workload,core,
// qos,sched,trace} is a lint finding (tools/lint.py `arrival`): every
// arrival process that exists must be visible, seedable, and reusable
// here, not re-invented per service.

#ifndef SRC_TRACE_LOADGEN_H_
#define SRC_TRACE_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/units.h"
#include "src/sim/simulator.h"

namespace soccluster {

class Counter;

// Poisson arrivals at `rate` req/s for `duration`, submitted via `sink`.
// By default the inter-arrival stream draws from the simulator RNG; pass
// `rng` to give the source its own seeded stream (sources with private
// streams stay bit-identical when unrelated sim randomness changes).
// `label` names the arrival events in determinism divergence reports.
class OpenLoopSource {
 public:
  using Sink = std::function<void()>;

  OpenLoopSource(Simulator* sim, double rate_per_s, Duration duration,
                 Sink sink);
  OpenLoopSource(Simulator* sim, double rate_per_s, Duration duration,
                 Sink sink, Rng* rng, std::string label);
  void Start();
  int64_t generated() const { return generated_; }

 private:
  void Arm();

  Simulator* sim_;
  double rate_;
  SimTime end_time_;
  Sink sink_;
  Rng* rng_;  // Not owned; null selects sim->rng().
  std::string label_;
  int64_t generated_ = 0;
  bool started_ = false;
};

// Raised-cosine diurnal curve floored at an overnight trough — the Fig. 5
// in-the-wild shape (gaming_trace.cc samples it too). Value(t) is a
// fraction of peak in [trough_fraction, 1] for a valid shape (day > 0,
// 0 <= trough_fraction <= 1, sharpen > 0; RateProcess checks these).
struct DiurnalShape {
  double trough_fraction = 0.04;  // 1/25th of peak overnight.
  double peak_hour = 21.0;        // Local-time peak.
  double sharpen = 2.2;           // Exponent sharpening the evening peak.
  // Regional offset: a cohort west of the reference region peaks later.
  double phase_hours = 0.0;
  // Length of one simulated "day". Compressing it (e.g. to minutes) keeps
  // the full shape while shrinking CI scenarios.
  Duration day = Duration::Hours(24);

  // Fraction of peak at simulated time `t`:
  // ValueAtBase(Base(Phase(day fraction of t))).
  double Value(SimTime t) const;

  // Value's stages. Phase is non-decreasing in `day_fraction` (every step is
  // a rounded monotone operation), the peak sits at phase 2*pi*k and the
  // trough at pi + 2*pi*k; Base is the raised cosine in [0, 1].
  double Phase(double day_fraction) const;
  static double Base(double phase);
  double ValueAtBase(double base) const;
};

// One multiplicative spike: ramps linearly from 1 to `peak_multiplier`
// over [start, start+ramp], holds until start+ramp+hold, then decays
// exponentially back toward 1 with time constant `decay`.
struct FlashCrowd {
  SimTime start;
  Duration ramp = Duration::Minutes(2);
  Duration hold = Duration::Minutes(10);
  Duration decay = Duration::Minutes(5);
  double peak_multiplier = 3.0;

  double Multiplier(SimTime t) const;
};

// A composed arrival-rate process:
//
//   rate(t) = peak_rate_per_s * diurnal(t) * prod_i flash_i(t)
//
// RateAt() is pure in t. Sources draw arrivals from it by NHPP thinning
// against MaxRate(), through NextArrival() and Below().
//
// Below(t, x) is the thinning test x < RateAt(t), bit for bit, without
// libm on most calls. The day is cut into kEnvelopeSegments equal slices of
// the day fraction; the first proposal landing in a slice computes bounds
// on the diurnal factor over it: the raised cosine is monotone between its
// peak and trough, so the bounds are the slice's endpoint values, or the
// peak (trough) when the slice contains it, widened to cover rounding in
// cos and pow. The exact non-diurnal factors times these bounds bracket the
// rate; only an x inside the bracket pays for the full RateAt.
class RateProcess {
 public:
  static constexpr int kEnvelopeSegments = 256;

  RateProcess(double peak_rate_per_s, DiurnalShape diurnal);

  void AddFlashCrowd(FlashCrowd crowd) { crowds_.push_back(crowd); }

  // Instantaneous rate at `t`.
  double RateAt(SimTime t) const;
  // Exactly `x < RateAt(t)`; the full rate is evaluated (and counted, see
  // set_counters) only when the envelope cannot decide.
  bool Below(SimTime t, double x);
  // Upper bound on RateAt over all t — the thinning proposal rate.
  double MaxRate() const;
  // The first arrival after `from` and before `end`, by NHPP thinning:
  // proposals arrive at MaxRate() and each is accepted when
  // Below(t, u * MaxRate()), with the gap and then u drawn from `rng`.
  // Empty when no proposal before `end` is accepted.
  std::optional<SimTime> NextArrival(SimTime from, SimTime end, Rng& rng);
  // Counts every proposal before `end` that NextArrival makes, and every
  // full rate evaluation Below makes (null: not counted).
  void set_counters(Counter* proposals, Counter* evals) {
    proposal_counter_ = proposals;
    eval_counter_ = evals;
  }

 private:
  // Bounds on the diurnal factor over one envelope segment; hi < 0 until
  // the first proposal in the segment computes them.
  struct Envelope {
    double lo = 0.0;
    double hi = -1.0;
  };

  Envelope SegmentEnvelope(int segment) const;

  double peak_rate_;
  DiurnalShape diurnal_;
  std::vector<FlashCrowd> crowds_;
  // Filled lazily by Below; empty until its first call.
  std::vector<Envelope> envelope_;
  Counter* proposal_counter_ = nullptr;
  Counter* eval_counter_ = nullptr;
};

}  // namespace soccluster

#endif  // SRC_TRACE_LOADGEN_H_
