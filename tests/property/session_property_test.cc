// Determinism properties of the open-loop session tier driving the real
// serving fleet: same seed must be bit-identical (digest and counters),
// tracing must be passive, and the arrival sequence must be independent of
// the retry discipline (the A/B contract the ride-out bench relies on).

#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "src/base/check.h"
#include "src/base/digest.h"
#include "src/cluster/cluster.h"
#include "src/hw/specs.h"
#include "src/sim/simulator.h"
#include "src/trace/session.h"
#include "src/workload/dl/serving.h"

namespace soccluster {
namespace {

constexpr Duration kDay = Duration::Minutes(3);

struct SessionOutcome {
  uint64_t digest = 0;
  int64_t sessions = 0;
  int64_t issued = 0;
  int64_t submitted = 0;
  int64_t good = 0;
  int64_t timeouts = 0;
  int64_t retries = 0;
  int64_t give_ups = 0;
  int64_t wasted = 0;
};

// A compressed diurnal day with a flash crowd on the evening peak, served
// by a small fleet sized to strain (but not drown) at the peak.
SessionOutcome RunSessionDay(uint64_t seed, bool traced,
                             RetryMode retry_mode = RetryMode::kBudgeted) {
  Simulator sim(seed);
  if (traced) {
    sim.tracer().Enable();
  }
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  Status status = sim.RunFor(Duration::Seconds(26));
  SOC_CHECK(status.ok());
  SocServingFleet fleet(&sim, &cluster, DlDevice::kSocCpu,
                        DnnModel::kResNet50, Precision::kFp32);
  fleet.SetActiveCount(8);
  fleet.SetDeadline(Duration::Seconds(2));
  fleet.admission().SetMaxQueue(200);
  fleet.SetHonorClientDeadline(true);

  SessionTierConfig config;
  config.users = 20'000;
  config.peak_rps = 0.9 * 8 * fleet.PerSocThroughput();
  config.diurnal.day = kDay;
  FlashCrowd crowd;
  crowd.start = sim.Now() + kDay * (config.diurnal.peak_hour / 24.0);
  crowd.ramp = Duration::Seconds(8);
  crowd.hold = Duration::Seconds(15);
  crowd.decay = Duration::Seconds(8);
  crowd.peak_multiplier = 3.0;
  config.flash_crowds.push_back(crowd);
  config.requests_per_session = 3.0;
  config.think_median = Duration::Seconds(3);
  config.think_sigma = 0.5;
  config.client_timeout = Duration::Millis(800);
  config.client_deadline = Duration::Millis(1500);
  config.give_up_after = Duration::Seconds(10);
  config.retry_mode = retry_mode;
  config.naive_retry_delay = Duration::Millis(250);
  config.counter_window = Duration::Seconds(10);
  config.seed = 77;

  SessionTier tier(&sim, config,
                   std::vector<SessionCohortConfig>{{"east", 0.6, 0.0},
                                                    {"west", 0.4, 3.0}});
  tier.SetSubmit([&fleet](Priority p, const ClientAttribution& client) {
    fleet.Submit(p, client);
  });
  fleet.SetClientObserver(tier.Observer());
  // One order-sensitive admission pipeline: the fleet's completion events
  // join the tier's anchor group (see SessionTier::anchor_group()).
  fleet.SetEventAnchorGroup(tier.anchor_group());
  tier.Start(kDay);
  status = sim.RunFor(kDay + Duration::Minutes(1));
  SOC_CHECK(status.ok());

  StateDigest digest;
  sim.DigestState(digest);
  cluster.DigestState(digest);
  fleet.DigestState(digest);
  tier.DigestState(digest);
  SessionOutcome outcome;
  outcome.digest = digest.value();
  outcome.sessions = tier.sessions_started();
  outcome.issued = tier.issued();
  outcome.submitted = tier.submitted();
  outcome.good = tier.good();
  outcome.timeouts = tier.timeouts();
  outcome.retries = tier.retries();
  outcome.give_ups = tier.give_ups();
  outcome.wasted = tier.wasted();
  return outcome;
}

void ExpectIdentical(const SessionOutcome& a, const SessionOutcome& b) {
  // Bitwise, not approximate: the runs must be indistinguishable.
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.issued, b.issued);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.good, b.good);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.give_ups, b.give_ups);
  EXPECT_EQ(a.wasted, b.wasted);
}

TEST(SessionPropertyTest, SameSeedBitIdentical) {
  for (uint64_t seed : {3u, 42u}) {
    const SessionOutcome first = RunSessionDay(seed, /*traced=*/false);
    const SessionOutcome second = RunSessionDay(seed, /*traced=*/false);
    ASSERT_GT(first.sessions, 1000);
    ExpectIdentical(first, second);
  }
}

TEST(SessionPropertyTest, DifferentSeedsDiverge) {
  const SessionOutcome a = RunSessionDay(42, /*traced=*/false);
  const SessionOutcome b = RunSessionDay(43, /*traced=*/false);
  ASSERT_GT(a.sessions, 0);
  EXPECT_NE(a.digest, b.digest);
}

TEST(SessionPropertyTest, TracingIsPassive) {
  const SessionOutcome untraced = RunSessionDay(7, /*traced=*/false);
  const SessionOutcome traced = RunSessionDay(7, /*traced=*/true);
  ASSERT_GT(untraced.sessions, 0);
  ExpectIdentical(untraced, traced);
}

TEST(SessionPropertyTest, ArrivalSequenceIndependentOfRetryMode) {
  // The ride-out bench's A/B contract: the same seed sees the identical
  // simulated day of session arrivals whatever the retry discipline does
  // to the behavior streams.
  const SessionOutcome naive =
      RunSessionDay(5, /*traced=*/false, RetryMode::kNaive);
  const SessionOutcome budgeted =
      RunSessionDay(5, /*traced=*/false, RetryMode::kBudgeted);
  ASSERT_GT(naive.sessions, 1000);
  EXPECT_EQ(naive.sessions, budgeted.sessions);
  // The disciplines themselves must differ in behavior, or the A/B
  // comparison is vacuous.
  EXPECT_NE(naive.submitted, budgeted.submitted);
}

}  // namespace
}  // namespace soccluster
