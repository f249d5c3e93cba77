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
//   RateProcess      composition of the above plus a two-state MMPP
//                    burst modulator, sampled as rate(t) for NHPP thinning;
//                    Below(t, x) answers a thinning test exactly while
//                    evaluating rate(t) only when a per-segment envelope on
//                    the day curve cannot decide it
//
// Arrival-process policy: this file and src/trace/session.h are where
// arrival processes live. Ad-hoc Exponential-draw arrival loops in
// workload/core code are a lint finding (tools/lint.py `arrival`): every
// arrival process that exists must be visible, seedable, and reusable
// here, not re-invented per service.

#ifndef SRC_TRACE_LOADGEN_H_
#define SRC_TRACE_LOADGEN_H_

#include <cstdint>
#include <functional>
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
// in-the-wild shape (gaming_trace.cc uses the same family). Value(t) is a
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

// Two-state Markov-modulated Poisson process parameters: the rate is
// multiplied by `burst_multiplier` while in the burst state. Dwell times
// are exponential with the given means. burst_multiplier 1 disables.
struct MmppConfig {
  double burst_multiplier = 1.0;
  Duration quiet_dwell = Duration::Minutes(20);
  Duration burst_dwell = Duration::Minutes(2);
};

// A composed arrival-rate process:
//
//   rate(t) = peak_rate_per_s * diurnal(t) * mmpp(t) * prod_i flash_i(t)
//
// RateAt() is pure in (t, mmpp state); the MMPP state advances on a
// private RNG stream via deterministic dwell draws. Sources sample this
// with NHPP thinning against MaxRate(), through Below().
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

  RateProcess(double peak_rate_per_s, DiurnalShape diurnal, MmppConfig mmpp,
              uint64_t seed);

  void AddFlashCrowd(FlashCrowd crowd) { crowds_.push_back(crowd); }

  // Instantaneous rate at `t` (advances the MMPP state up to `t`; calls
  // must be time-monotone).
  double RateAt(SimTime t);
  // Exactly `x < RateAt(t)`, with the same MMPP advance; the full rate is
  // evaluated (and counted, see set_eval_counter) only when the envelope
  // cannot decide.
  bool Below(SimTime t, double x);
  // Upper bound on RateAt over all t — the thinning proposal rate.
  double MaxRate() const;
  // Counts every full rate evaluation Below makes (null: none counted).
  void set_eval_counter(Counter* counter) { eval_counter_ = counter; }
  // True while the burst state is active (after the latest RateAt).
  bool bursting() const { return bursting_; }

  uint64_t RngFingerprint() const { return rng_.StateFingerprint(); }
  // Mixes the modulator state (burst flag + next transition + RNG).
  void DigestState(StateDigest& digest) const;

 private:
  // Bounds on the diurnal factor over one envelope segment; hi < 0 until
  // the first proposal in the segment computes them.
  struct Envelope {
    double lo = 0.0;
    double hi = -1.0;
  };

  // Moves the MMPP modulator up to `t`.
  void Advance(SimTime t);
  // RateAt after Advance(t).
  double Rate(SimTime t) const;
  Envelope SegmentEnvelope(int segment) const;

  double peak_rate_;
  DiurnalShape diurnal_;
  MmppConfig mmpp_;
  std::vector<FlashCrowd> crowds_;
  Rng rng_;
  bool bursting_ = false;
  SimTime next_transition_;
  bool mmpp_armed_ = false;
  // Filled lazily by Below; empty until its first call.
  std::vector<Envelope> envelope_;
  Counter* eval_counter_ = nullptr;
};

}  // namespace soccluster

#endif  // SRC_TRACE_LOADGEN_H_
