#include "src/trace/loadgen.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/base/check.h"
#include "src/obs/metrics.h"

namespace soccluster {

OpenLoopSource::OpenLoopSource(Simulator* sim, double rate_per_s,
                               Duration duration, Sink sink)
    : OpenLoopSource(sim, rate_per_s, duration, std::move(sink),
                     /*rng=*/nullptr, "source.arrival") {}

OpenLoopSource::OpenLoopSource(Simulator* sim, double rate_per_s,
                               Duration duration, Sink sink, Rng* rng,
                               std::string label)
    : sim_(sim), rate_(rate_per_s), end_time_(sim->Now() + duration),
      sink_(std::move(sink)), rng_(rng), label_(std::move(label)) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK_GT(rate_, 0.0);
  SOC_CHECK(sink_ != nullptr);
  SOC_CHECK(!label_.empty());
}

void OpenLoopSource::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  Arm();
}

void OpenLoopSource::Arm() {
  Rng& rng = rng_ != nullptr ? *rng_ : sim_->rng();
  const Duration gap = Duration::SecondsF(rng.Exponential(rate_));
  const SimTime next = sim_->Now() + gap;
  if (next > end_time_) {
    return;
  }
  sim_->ScheduleAt(
      next,
      [this] {
        ++generated_;
        sink_();
        Arm();
      },
      label_);
}

double DiurnalShape::Value(SimTime t) const {
  SOC_DCHECK_GT(day.nanos(), 0);
  // Hours-of-day in "day" units, so a compressed day keeps the shape.
  const double day_fraction =
      std::fmod(static_cast<double>(t.nanos()) /
                    static_cast<double>(day.nanos()),
                1.0);
  return ValueAtBase(Base(Phase(day_fraction)));
}

double DiurnalShape::Phase(double day_fraction) const {
  const double hour = day_fraction * 24.0 - phase_hours;
  return (hour - peak_hour) / 24.0 * 2.0 * M_PI;
}

double DiurnalShape::Base(double phase) {
  return 0.5 * (1.0 + std::cos(phase));
}

double DiurnalShape::ValueAtBase(double base) const {
  const double shaped = std::pow(base, sharpen);
  return trough_fraction + (1.0 - trough_fraction) * shaped;
}

double FlashCrowd::Multiplier(SimTime t) const {
  if (t < start || peak_multiplier <= 1.0) {
    return 1.0;
  }
  const Duration since = t - start;
  if (since < ramp) {
    const double f = ramp.nanos() > 0
                         ? static_cast<double>(since.nanos()) /
                               static_cast<double>(ramp.nanos())
                         : 1.0;
    return 1.0 + (peak_multiplier - 1.0) * f;
  }
  if (since < ramp + hold) {
    return peak_multiplier;
  }
  if (decay.nanos() <= 0) {
    return 1.0;
  }
  const Duration tail = since - ramp - hold;
  const double f = std::exp(-static_cast<double>(tail.nanos()) /
                            static_cast<double>(decay.nanos()));
  return 1.0 + (peak_multiplier - 1.0) * f;
}

namespace {

// Envelope widening. Base() is within ~2e-16 of the true raised cosine at
// the phase it is given (cos to within an ulp, then one rounded add), so an
// absolute slack of 1e-15 on the base covers its non-monotone rounding even
// next to the trough, where a relative one would not. pow, the final
// arithmetic and the reordered product of the rate's factors each round
// relatively, by a few ulps in all; 1e-9 covers them many times over.
constexpr double kBaseSlack = 1e-15;
constexpr double kRelativeSlack = 1e-9;

// True when some phase offset + 2*pi*k lies in [lo, hi], with a slack that
// covers the rounding in Phase (only ever a wider envelope).
bool ContainsPhase(double lo, double hi, double offset) {
  constexpr double kPeriod = 2.0 * M_PI;
  const double slack = 1e-9 * (1.0 + std::fabs(lo) + std::fabs(hi));
  const double k = std::ceil((lo - slack - offset) / kPeriod);
  return offset + k * kPeriod <= hi + slack;
}

}  // namespace

RateProcess::RateProcess(double peak_rate_per_s, DiurnalShape diurnal)
    : peak_rate_(peak_rate_per_s), diurnal_(diurnal) {
  SOC_CHECK_GT(peak_rate_, 0.0);
  // MaxRate() and the envelope's single peak and trough per day hold only
  // for a shape whose Value stays in [trough_fraction, 1].
  SOC_CHECK_GT(diurnal_.day.nanos(), 0);
  SOC_CHECK(diurnal_.trough_fraction >= 0.0 &&
            diurnal_.trough_fraction <= 1.0)
      << "trough_fraction must be in [0, 1]: " << diurnal_.trough_fraction;
  SOC_CHECK_GT(diurnal_.sharpen, 0.0);
}

double RateProcess::RateAt(SimTime t) const {
  double rate = peak_rate_ * diurnal_.Value(t);
  for (const FlashCrowd& crowd : crowds_) {
    rate *= crowd.Multiplier(t);
  }
  return rate;
}

bool RateProcess::Below(SimTime t, double x) {
  // Value's day fraction, bit for bit: for 0 <= days < 2^52 the integer
  // part converts exactly and fmod(days, 1) is days minus it.
  const double days =
      static_cast<double>(t.nanos()) / static_cast<double>(diurnal_.day.nanos());
  if (days >= 0.0 && days < 0x1p52) {
    const double fraction =
        days - static_cast<double>(static_cast<int64_t>(days));
    // Exact: the segment count is a power of two.
    const int segment = static_cast<int>(fraction * kEnvelopeSegments);
    if (envelope_.empty()) {
      envelope_.resize(kEnvelopeSegments);
    }
    Envelope& envelope = envelope_[static_cast<size_t>(segment)];
    if (envelope.hi < 0.0) {
      envelope = SegmentEnvelope(segment);
    }
    // RateAt's factors but the diurnal one, in RateAt's order.
    double factor = peak_rate_;
    for (const FlashCrowd& crowd : crowds_) {
      factor *= crowd.Multiplier(t);
    }
    if (x < factor * envelope.lo) {
      return true;
    }
    if (x >= factor * envelope.hi) {
      return false;
    }
  }
  if (eval_counter_ != nullptr) {
    eval_counter_->Increment();
  }
  return x < RateAt(t);
}

std::optional<SimTime> RateProcess::NextArrival(SimTime from, SimTime end,
                                                Rng& rng) {
  const double max_rate = MaxRate();
  SimTime t = from;
  for (;;) {
    t = t + Duration::SecondsF(rng.Exponential(max_rate));
    if (t >= end) {
      return std::nullopt;
    }
    if (proposal_counter_ != nullptr) {
      proposal_counter_->Increment();
    }
    if (Below(t, rng.NextDouble() * max_rate)) {
      return t;
    }
  }
}

RateProcess::Envelope RateProcess::SegmentEnvelope(int segment) const {
  static_assert((kEnvelopeSegments & (kEnvelopeSegments - 1)) == 0,
                "segment edges must be exact day fractions");
  // Phase is non-decreasing in the day fraction, so every proposal in the
  // segment has a phase in [lo_phase, hi_phase], a span far shorter than
  // half a period: the raised cosine is monotone over it unless it holds
  // the peak or the trough.
  const double lo_phase = diurnal_.Phase(
      static_cast<double>(segment) / kEnvelopeSegments);
  const double hi_phase = diurnal_.Phase(
      static_cast<double>(segment + 1) / kEnvelopeSegments);
  const double a = DiurnalShape::Base(lo_phase);
  const double b = DiurnalShape::Base(hi_phase);
  double lo_base = std::max(0.0, std::min(a, b) - kBaseSlack);
  double hi_base = std::min(1.0, std::max(a, b) + kBaseSlack);
  if (ContainsPhase(lo_phase, hi_phase, 0.0)) {
    hi_base = 1.0;
  }
  if (ContainsPhase(lo_phase, hi_phase, M_PI)) {
    lo_base = 0.0;
  }
  Envelope envelope;
  envelope.lo = diurnal_.ValueAtBase(lo_base) * (1.0 - kRelativeSlack);
  envelope.hi = diurnal_.ValueAtBase(hi_base) * (1.0 + kRelativeSlack);
  return envelope;
}

double RateProcess::MaxRate() const {
  double max_rate = peak_rate_;
  for (const FlashCrowd& crowd : crowds_) {
    if (crowd.peak_multiplier > 1.0) {
      max_rate *= crowd.peak_multiplier;
    }
  }
  return max_rate;
}

}  // namespace soccluster
