// RateProcess::Below against RateAt: the envelope-squeezed thinning test
// must answer exactly `x < RateAt(t)` of a twin process, and still leave
// almost every random proposal to the envelope.

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "src/base/rng.h"
#include "src/obs/metrics.h"
#include "src/trace/loadgen.h"

namespace soccluster {
namespace {

struct ProcessSpec {
  double peak_rate = 1.0;
  DiurnalShape shape;
  std::vector<FlashCrowd> crowds;

  RateProcess Make() const {
    RateProcess process(peak_rate, shape);
    for (const FlashCrowd& crowd : crowds) {
      process.AddFlashCrowd(crowd);
    }
    return process;
  }
};

// A random valid shape: flat, zero-trough and ordinary troughs, sharpening
// on both sides of 1, any phase, and day lengths that no power of two
// divides.
ProcessSpec RandomSpec(Rng& rng) {
  ProcessSpec spec;
  spec.peak_rate = std::exp(rng.Uniform(-3.0, 8.0));
  const double trough = rng.NextDouble();
  spec.shape.trough_fraction =
      trough < 0.15 ? 1.0 : (trough < 0.35 ? 0.0 : rng.Uniform(0.0, 0.6));
  spec.shape.peak_hour = rng.Uniform(0.0, 24.0);
  spec.shape.sharpen = rng.Uniform(0.3, 6.0);
  spec.shape.phase_hours = rng.Uniform(-30.0, 30.0);
  const int64_t day_ns = rng.UniformInt(1'000'000, 200'000'000'000) | 1;
  spec.shape.day = Duration::Nanos(day_ns);
  const int crowds = static_cast<int>(rng.UniformInt(0, 3));
  for (int c = 0; c < crowds; ++c) {
    FlashCrowd crowd;
    crowd.start = SimTime::Zero() +
                  Duration::Nanos(rng.UniformInt(0, 3 * day_ns));
    // Zero ramp or zero decay on some crowds: the multiplier jumps.
    crowd.ramp = rng.NextDouble() < 0.3
                     ? Duration::Nanos(0)
                     : Duration::Nanos(rng.UniformInt(1, day_ns / 10));
    crowd.hold = Duration::Nanos(rng.UniformInt(0, day_ns / 8));
    crowd.decay = rng.NextDouble() < 0.3
                      ? Duration::Nanos(0)
                      : Duration::Nanos(rng.UniformInt(1, day_ns / 10));
    crowd.peak_multiplier = rng.Uniform(0.5, 5.0);
    spec.crowds.push_back(crowd);
  }
  return spec;
}

// `x` stepped `k` ulps up (k > 0) or down (k < 0).
double Ulps(double x, int k) {
  const double toward = k > 0 ? std::numeric_limits<double>::infinity()
                              : -std::numeric_limits<double>::infinity();
  for (int i = 0; i < std::abs(k); ++i) {
    x = std::nextafter(x, toward);
  }
  return x;
}

TEST(ThinningProperty, BelowEqualsRateComparisonOnTwinProcesses) {
  Rng rng(2024);
  int64_t checks = 0;
  for (int shape = 0; shape < 60; ++shape) {
    const ProcessSpec spec = RandomSpec(rng);
    RateProcess squeezed = spec.Make();
    const RateProcess exact = spec.Make();
    const int64_t day_ns = spec.shape.day.nanos();
    SimTime t = SimTime::Zero();
    for (int step = 0; step < 1500; ++step) {
      // Mostly random steps; every fourth lands within a few ns of an
      // envelope segment edge (one nanosecond is the finest step time has).
      if (step % 4 == 3) {
        const int64_t edge_count =
            (t.nanos() * RateProcess::kEnvelopeSegments) / day_ns + 1;
        const int64_t edge_ns =
            (edge_count * day_ns) / RateProcess::kEnvelopeSegments;
        const int64_t target = edge_ns + rng.UniformInt(-2, 2);
        t = SimTime::Zero() + Duration::Nanos(std::max(target, t.nanos()));
      } else {
        t = t + Duration::Nanos(rng.UniformInt(0, day_ns / 97));
      }
      const double rate = exact.RateAt(t);
      const double max_rate = exact.MaxRate();
      std::vector<double> xs = {rate, 0.0, max_rate,
                                rng.NextDouble() * max_rate};
      for (int k = 1; k <= 4; ++k) {
        xs.push_back(Ulps(rate, k));
        xs.push_back(Ulps(rate, -k));
      }
      xs.push_back(rate * (1.0 + 1e-10));
      xs.push_back(rate * (1.0 - 1e-10));
      for (const double x : xs) {
        ASSERT_EQ(squeezed.Below(t, x), x < rate)
            << "shape " << shape << " step " << step << " t=" << t.nanos()
            << " x=" << x << " rate=" << rate;
        ++checks;
      }
    }
  }
  EXPECT_GT(checks, 1'000'000);
}

TEST(ThinningProperty, ZeroTroughJustBeforeASegmentEdge) {
  // The trough sits a millionth of a day before segment 128's lower edge,
  // so that segment's lower bound comes from an endpoint whose raised
  // cosine is ~1e-11. There one ulp of cos is a 1e-5 relative error, far
  // above the relative slack: the computed curve must stay monotone from
  // the edge on (it does with a correctly rounded cos; the envelope's
  // absolute slack on the base covers a libm that rounds less tightly).
  for (const double sharpen : {0.5, 2.2, 6.0}) {
    ProcessSpec spec;
    spec.peak_rate = 100.0;
    spec.shape.trough_fraction = 0.0;
    spec.shape.sharpen = sharpen;
    spec.shape.peak_hour = 24.0 - 24.0 * 1e-6;
    spec.shape.day = Duration::Hours(1);
    RateProcess squeezed = spec.Make();
    const RateProcess exact = spec.Make();
    const int64_t edge_ns = spec.shape.day.nanos() / 2;
    Rng rng(77);
    SimTime t = SimTime::Zero() + Duration::Nanos(edge_ns - 5'000'000);
    while (t.nanos() < edge_ns + 200'000'000) {
      t = t + Duration::Nanos(rng.UniformInt(1, 20'000));
      const double rate = exact.RateAt(t);
      for (int k = -3; k <= 3; ++k) {
        const double x = Ulps(rate, k);
        ASSERT_EQ(squeezed.Below(t, x), x < rate)
            << "sharpen " << sharpen << " t=" << t.nanos() << " k=" << k;
      }
    }
  }
}

TEST(ThinningProperty, RandomProposalsRarelyEvaluateTheRate) {
  // The ride-out day's shape: default curve and a 4x flash crowd on the
  // evening peak; proposals at MaxRate as the session tier makes them.
  ProcessSpec spec;
  spec.peak_rate = 50.0;
  spec.shape.day = Duration::Minutes(60);
  FlashCrowd crowd;
  crowd.start = SimTime::Zero() + Duration::Minutes(50);
  crowd.peak_multiplier = 4.0;
  spec.crowds.push_back(crowd);
  RateProcess squeezed = spec.Make();
  const RateProcess exact = spec.Make();
  Counter evaluations;
  squeezed.set_counters(/*proposals=*/nullptr, &evaluations);
  Rng rng(5);
  const double max_rate = squeezed.MaxRate();
  SimTime t = SimTime::Zero();
  int64_t proposals = 0;
  int64_t accepted = 0;
  while (t < SimTime::Zero() + Duration::Minutes(120)) {
    t = t + Duration::SecondsF(rng.Exponential(max_rate));
    const double x = rng.NextDouble() * max_rate;
    const bool below = squeezed.Below(t, x);
    ASSERT_EQ(below, x < exact.RateAt(t));
    ++proposals;
    accepted += below ? 1 : 0;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, proposals);
  EXPECT_LT(static_cast<double>(evaluations.value()) /
                static_cast<double>(proposals),
            0.01)
      << evaluations.value() << " of " << proposals;
}

}  // namespace
}  // namespace soccluster
