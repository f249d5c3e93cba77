// Unit tests for the open-loop load primitives (src/trace/loadgen.h) and
// the session tier (src/trace/session.h). The tier tests run against a
// fake in-sim server so every client-side path — completion, timeout,
// each retry mode, the give-up horizon, late (wasted) outcomes — is
// exercised without a cluster.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "src/base/check.h"
#include "src/base/client.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"
#include "src/trace/loadgen.h"
#include "src/trace/session.h"

namespace soccluster {
namespace {

// --- loadgen primitives -------------------------------------------------

TEST(DiurnalShapeTest, PeaksAtPeakHourAndFloorsAtTrough) {
  DiurnalShape shape;  // Defaults: peak 21:00, trough 0.04, 24 h day.
  const double peak = shape.Value(SimTime::Zero() + Duration::Hours(21));
  const double trough = shape.Value(SimTime::Zero() + Duration::Hours(9));
  EXPECT_GT(peak, 0.99);
  EXPECT_LE(peak, 1.0);
  EXPECT_LE(trough, 0.05);
  EXPECT_GE(trough, shape.trough_fraction - 1e-12);
  // Every sample stays inside [trough_fraction, 1].
  for (int h = 0; h < 48; ++h) {
    const double v = shape.Value(SimTime::Zero() + Duration::Hours(h));
    EXPECT_GE(v, shape.trough_fraction - 1e-12) << "hour " << h;
    EXPECT_LE(v, 1.0 + 1e-12) << "hour " << h;
  }
}

TEST(DiurnalShapeTest, PhaseOffsetShiftsThePeak) {
  DiurnalShape east;
  DiurnalShape west = east;
  west.phase_hours = 3.0;  // Three time zones west: peaks three hours later.
  const SimTime east_peak = SimTime::Zero() + Duration::Hours(21);
  EXPECT_NEAR(west.Value(east_peak + Duration::Hours(3)),
              east.Value(east_peak), 1e-9);
  EXPECT_LT(west.Value(east_peak), east.Value(east_peak));
}

TEST(DiurnalShapeTest, TroughOfOneFlattensTheDay) {
  DiurnalShape flat;
  flat.trough_fraction = 1.0;
  for (int h = 0; h < 24; ++h) {
    EXPECT_DOUBLE_EQ(flat.Value(SimTime::Zero() + Duration::Hours(h)), 1.0);
  }
}

TEST(FlashCrowdTest, RampHoldDecayEnvelope) {
  FlashCrowd crowd;
  crowd.start = SimTime::Zero() + Duration::Minutes(10);
  crowd.ramp = Duration::Minutes(2);
  crowd.hold = Duration::Minutes(10);
  crowd.decay = Duration::Minutes(5);
  crowd.peak_multiplier = 3.0;
  EXPECT_DOUBLE_EQ(crowd.Multiplier(SimTime::Zero()), 1.0);
  EXPECT_NEAR(crowd.Multiplier(crowd.start + Duration::Minutes(1)), 2.0,
              1e-9);
  EXPECT_NEAR(crowd.Multiplier(crowd.start + crowd.ramp), 3.0, 1e-9);
  EXPECT_NEAR(crowd.Multiplier(crowd.start + crowd.ramp +
                               Duration::Minutes(5)),
              3.0, 1e-9);
  // Five decay time constants after the hold: within 1% of baseline.
  const SimTime late = crowd.start + crowd.ramp + crowd.hold +
                       Duration::Minutes(25);
  EXPECT_LT(crowd.Multiplier(late), 1.02);
  EXPECT_GE(crowd.Multiplier(late), 1.0);
}

TEST(RateProcessTest, FlatShapeYieldsConstantRateUnderMaxRate) {
  DiurnalShape flat;
  flat.trough_fraction = 1.0;
  RateProcess process(50.0, flat);
  for (int m = 0; m < 30; ++m) {
    const double rate = process.RateAt(SimTime::Zero() + Duration::Minutes(m));
    EXPECT_DOUBLE_EQ(rate, 50.0);
    EXPECT_LE(rate, process.MaxRate());
  }
}

TEST(RateProcessTest, MaxRateBoundsFlash) {
  DiurnalShape shape;
  RateProcess process(100.0, shape);
  FlashCrowd crowd;
  crowd.start = SimTime::Zero() + Duration::Hours(20);
  crowd.peak_multiplier = 2.5;
  process.AddFlashCrowd(crowd);
  EXPECT_GE(process.MaxRate(), 100.0 * 2.5 - 1e-9);
  for (int m = 0; m < 24 * 60; m += 7) {
    const double rate = process.RateAt(SimTime::Zero() + Duration::Minutes(m));
    EXPECT_LE(rate, process.MaxRate() + 1e-9) << "minute " << m;
  }
}

TEST(RateProcessTest, NextArrivalThinsAgainstMaxRate) {
  // Proposals at MaxRate, each accepted on one fresh uniform: replaying
  // the stream by hand reproduces every arrival and counts every proposal
  // before the (exclusive) end.
  DiurnalShape shape;
  shape.day = Duration::Minutes(10);
  RateProcess process(20.0, shape);
  FlashCrowd crowd;
  crowd.start = SimTime::Zero() + Duration::Minutes(8);
  process.AddFlashCrowd(crowd);
  Counter proposals;
  process.set_counters(&proposals, /*evals=*/nullptr);
  const double max_rate = process.MaxRate();
  const SimTime end = SimTime::Zero() + shape.day;
  Rng rng(3);
  Rng replay(3);
  SimTime expected = SimTime::Zero();
  int64_t arrivals = 0;
  int64_t expected_proposals = 0;
  for (std::optional<SimTime> next =
           process.NextArrival(SimTime::Zero(), end, rng);
       next.has_value(); next = process.NextArrival(*next, end, rng)) {
    for (;;) {
      expected = expected + Duration::SecondsF(replay.Exponential(max_rate));
      ASSERT_LT(expected, end);
      ++expected_proposals;
      if (replay.NextDouble() * max_rate < process.RateAt(expected)) {
        break;
      }
    }
    ASSERT_EQ(next->nanos(), expected.nanos());
    ++arrivals;
  }
  EXPECT_GT(arrivals, 100);
  EXPECT_LT(arrivals, expected_proposals);
  // The proposals after the last arrival that still fell before `end`.
  for (;;) {
    expected = expected + Duration::SecondsF(replay.Exponential(max_rate));
    if (expected >= end) {
      break;
    }
    ++expected_proposals;
    replay.NextDouble();
  }
  EXPECT_EQ(proposals.value(), expected_proposals);
}

TEST(RateProcessDeathTest, RejectsShapesOutsideTheEnvelopeContract) {
  // MaxRate() and the thinning envelope assume Value stays in
  // [trough_fraction, 1] with one peak and one trough per day.
  const auto make = [](DiurnalShape shape) {
    RateProcess process(10.0, shape);
  };
  DiurnalShape ok;
  make(ok);
  DiurnalShape high_trough;
  high_trough.trough_fraction = 1.5;
  EXPECT_DEATH(make(high_trough), "trough_fraction");
  DiurnalShape negative_trough;
  negative_trough.trough_fraction = -0.1;
  EXPECT_DEATH(make(negative_trough), "trough_fraction");
  DiurnalShape flat_sharpen;
  flat_sharpen.sharpen = 0.0;
  EXPECT_DEATH(make(flat_sharpen), "sharpen");
  DiurnalShape no_day;
  no_day.day = Duration::Nanos(0);
  EXPECT_DEATH(make(no_day), "day");
}

// --- session tier against a fake server ---------------------------------

// Minimal in-sim service: every submission either completes after a fixed
// service time or is silently dropped (the client's timeout fires).
struct FakeServer {
  Simulator* sim = nullptr;
  ClientObserver observer;
  Duration service = Duration::Millis(50);
  bool respond = true;
  int64_t received = 0;
  int64_t critical = 0;

  void Submit(Priority priority, const ClientAttribution& client) {
    ++received;
    if (priority == Priority::kCritical) {
      ++critical;
    }
    if (!respond) {
      return;
    }
    const uint64_t ticket = client.ticket;
    const Duration latency = service;
    sim->ScheduleAfter(service, [this, ticket, latency] {
      observer(ticket, ClientOutcome::kSuccess, latency);
    });
  }
};

SessionTierConfig FlatTierConfig(uint64_t seed) {
  SessionTierConfig config;
  config.users = 10'000;
  config.peak_rps = 40.0;
  config.diurnal.trough_fraction = 1.0;  // Flat: rate == peak_rps.
  config.requests_per_session = 3.0;
  config.think_median = Duration::Seconds(2);
  config.think_sigma = 0.5;
  config.client_timeout = Duration::Millis(500);
  config.client_deadline = Duration::Seconds(1);
  config.give_up_after = Duration::Seconds(10);
  config.retry_mode = RetryMode::kBudgeted;
  config.counter_window = Duration::Seconds(5);
  config.seed = seed;
  return config;
}

struct TierHarness {
  explicit TierHarness(SessionTierConfig config, uint64_t sim_seed = 1)
      : sim(sim_seed),
        tier(&sim, config,
             std::vector<SessionCohortConfig>{{"all", 1.0, 0.0}}) {
    server.sim = &sim;
    server.observer = tier.Observer();
    tier.SetSubmit([this](Priority p, const ClientAttribution& client) {
      server.Submit(p, client);
    });
  }

  void Run(Duration horizon) {
    tier.Start(horizon);
    sim.Run();  // The wheel stops itself once drained past the horizon.
  }

  Simulator sim;
  FakeServer server;
  SessionTier tier;
};

TEST(SessionTierTest, FastServerCompletesEveryRequestGood) {
  TierHarness h(FlatTierConfig(5));
  h.Run(Duration::Minutes(2));
  EXPECT_GT(h.tier.sessions_started(), 1000);
  EXPECT_GT(h.tier.issued(), h.tier.sessions_started());
  // 50 ms service against a 500 ms timeout: no timeouts, no retries, and
  // every request is good.
  EXPECT_EQ(h.tier.timeouts(), 0);
  EXPECT_EQ(h.tier.retries(), 0);
  EXPECT_EQ(h.tier.give_ups(), 0);
  EXPECT_EQ(h.tier.wasted(), 0);
  EXPECT_EQ(h.tier.good(), h.tier.issued());
  EXPECT_EQ(h.tier.submitted(), h.tier.issued());
  EXPECT_EQ(h.tier.live_sessions(), 0u);  // Fully drained.
  EXPECT_EQ(h.server.received, h.tier.submitted());
}

TEST(SessionTierTest, PriorityMixIsTwentyFiftyThirty) {
  TierHarness h(FlatTierConfig(6));
  h.Run(Duration::Minutes(2));
  ASSERT_GT(h.tier.issued(), 1000);
  const double critical_fraction =
      static_cast<double>(h.server.critical) /
      static_cast<double>(h.server.received);
  EXPECT_NEAR(critical_fraction, 0.2, 0.01);
}

TEST(SessionTierTest, ZeroPatienceGivesUpOnFirstTimeout) {
  SessionTierConfig config = FlatTierConfig(7);
  config.retry_mode = RetryMode::kNaive;
  config.give_up_after = Duration::Zero();
  TierHarness h(config);
  h.server.respond = false;
  h.Run(Duration::Minutes(1));
  ASSERT_GT(h.tier.issued(), 0);
  EXPECT_EQ(h.tier.good(), 0);
  EXPECT_EQ(h.tier.retries(), 0);
  EXPECT_EQ(h.tier.submitted(), h.tier.issued());
  EXPECT_EQ(h.tier.timeouts(), h.tier.issued());
  EXPECT_EQ(h.tier.give_ups(), h.tier.issued());
  // A give-up on the first request abandons the whole session.
  EXPECT_EQ(h.tier.issued(), h.tier.sessions_started());
  EXPECT_EQ(h.tier.live_sessions(), 0u);
}

TEST(SessionTierTest, BackoffBoundsAttemptsPerRequest) {
  SessionTierConfig config = FlatTierConfig(8);
  config.retry_mode = RetryMode::kBudgeted;
  config.backoff.max_attempts = 3;
  // A budget no run can drain: only the backoff's attempt cap binds.
  config.budget_max_tokens = 1e9;
  TierHarness h(config);
  h.server.respond = false;
  h.Run(Duration::Minutes(1));
  ASSERT_GT(h.tier.issued(), 0);
  EXPECT_EQ(h.tier.good(), 0);
  EXPECT_GT(h.tier.retries(), 0);
  EXPECT_EQ(h.tier.retries(), h.tier.submitted() - h.tier.issued());
  EXPECT_LE(h.tier.submitted(), 3 * h.tier.issued());
  EXPECT_EQ(h.tier.give_ups(), h.tier.issued());
  EXPECT_EQ(h.tier.retries_denied(), 0);
}

TEST(SessionTierTest, NaiveRetriesUntilPatienceRunsOut) {
  SessionTierConfig config = FlatTierConfig(9);
  config.retry_mode = RetryMode::kNaive;
  config.naive_retry_delay = Duration::Millis(100);
  config.give_up_after = Duration::Seconds(10);
  TierHarness h(config);
  h.server.respond = false;
  h.Run(Duration::Minutes(1));
  ASSERT_GT(h.tier.issued(), 0);
  // ~500 ms timeout + ~100 ms delay per cycle over a 10 s patience window:
  // well past any bounded policy's attempt count.
  const double amplification =
      static_cast<double>(h.tier.submitted()) /
      static_cast<double>(h.tier.issued());
  EXPECT_GT(amplification, 5.0);
  EXPECT_EQ(h.tier.give_ups(), h.tier.issued());
  EXPECT_EQ(h.tier.good(), 0);
}

TEST(SessionTierTest, BudgetDeniesRetriesWithoutSuccesses) {
  SessionTierConfig config = FlatTierConfig(10);
  config.retry_mode = RetryMode::kBudgeted;
  config.budget_tokens_per_success = 0.1;
  config.budget_max_tokens = 5.0;
  TierHarness h(config);
  h.server.respond = false;
  h.Run(Duration::Minutes(1));
  ASSERT_GT(h.tier.issued(), 100);
  // No successes refill the bucket, so at most the initial tokens are
  // spent and every further retry is denied.
  EXPECT_LE(h.tier.retries(), 5);
  EXPECT_GT(h.tier.retries_denied(), 0);
  const RetryBudget* budget = h.tier.budget();
  ASSERT_NE(budget, nullptr);
  EXPECT_EQ(budget->denied(), h.tier.retries_denied());
}

TEST(SessionTierTest, LateOutcomesCountAsWasted) {
  SessionTierConfig config = FlatTierConfig(11);
  config.give_up_after = Duration::Zero();  // One attempt per request.
  TierHarness h(config);
  h.server.service = Duration::Millis(800);  // Past the 500 ms timeout.
  h.Run(Duration::Minutes(1));
  ASSERT_GT(h.tier.issued(), 0);
  // Every outcome lands after the client abandoned the attempt: server
  // capacity spent for nothing, the signature of the metastable state.
  EXPECT_EQ(h.tier.good(), 0);
  EXPECT_EQ(h.tier.timeouts(), h.tier.issued());
  EXPECT_EQ(h.tier.wasted(), h.tier.issued());
}

TEST(SessionTierTest, WindowSeriesSumsToTotals) {
  TierHarness h(FlatTierConfig(12));
  h.Run(Duration::Minutes(2));
  int64_t sessions = 0;
  int64_t issued = 0;
  int64_t good = 0;
  int64_t submitted = 0;
  for (const SessionWindow& window : h.tier.series()) {
    sessions += window.sessions_started;
    issued += window.issued;
    good += window.good;
    submitted += window.submitted;
  }
  EXPECT_EQ(sessions, h.tier.sessions_started());
  EXPECT_EQ(issued, h.tier.issued());
  EXPECT_EQ(good, h.tier.good());
  EXPECT_EQ(submitted, h.tier.submitted());
  EXPECT_DOUBLE_EQ(h.tier.GoodputOver(0, h.tier.series().size()),
                   static_cast<double>(good) / static_cast<double>(issued));
}

TEST(SessionTierTest, GoodputOverEmptyRangeIsZero) {
  TierHarness h(FlatTierConfig(13));
  EXPECT_DOUBLE_EQ(h.tier.GoodputOver(0, 10), 0.0);
}

}  // namespace
}  // namespace soccluster
