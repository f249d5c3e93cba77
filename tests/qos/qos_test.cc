#include <cstdint>
#include <optional>
#include <utility>

#include <gtest/gtest.h>

#include "src/base/check.h"
#include "src/qos/admission.h"
#include "src/qos/breaker.h"
#include "src/qos/brownout.h"
#include "src/qos/request_ledger.h"

namespace soccluster {
namespace {

TEST(AdmissionQueueTest, StrictPriorityFifoWithinClass) {
  Simulator sim(1);
  AdmissionQueue queue(&sim, "t.order");
  ASSERT_TRUE(queue.Offer(Priority::kBestEffort, Duration::Zero(), 1));
  ASSERT_TRUE(queue.Offer(Priority::kStandard, Duration::Zero(), 2));
  ASSERT_TRUE(queue.Offer(Priority::kCritical, Duration::Zero(), 3));
  ASSERT_TRUE(queue.Offer(Priority::kStandard, Duration::Zero(), 4));
  EXPECT_EQ(queue.size(), 4);
  int order[4];
  for (int& slot : order) {
    auto item = queue.Pop();
    ASSERT_TRUE(item.has_value());
    slot = static_cast<int>(item->handle);
  }
  EXPECT_EQ(order[0], 3);  // Critical first.
  EXPECT_EQ(order[1], 2);  // Standard, FIFO.
  EXPECT_EQ(order[2], 4);
  EXPECT_EQ(order[3], 1);  // Best-effort last.
  EXPECT_FALSE(queue.Pop().has_value());
}

TEST(AdmissionQueueTest, AdmitFloorRefusesLowerClasses) {
  Simulator sim(1);
  AdmissionQueue queue(&sim, "t.floor");
  queue.SetAdmitFloor(Priority::kStandard);
  EXPECT_FALSE(queue.Offer(Priority::kBestEffort, Duration::Zero(), 0));
  EXPECT_TRUE(queue.Offer(Priority::kStandard, Duration::Zero(), 0));
  EXPECT_TRUE(queue.Offer(Priority::kCritical, Duration::Zero(), 0));
  EXPECT_EQ(queue.DroppedFor(AdmissionQueue::DropReason::kAdmitFloor), 1);
  queue.SetAdmitFloor(Priority::kBestEffort);
  EXPECT_TRUE(queue.Offer(Priority::kBestEffort, Duration::Zero(), 0));
}

TEST(AdmissionQueueTest, FullQueueEvictsNewestLowerClassItem) {
  Simulator sim(1);
  AdmissionQueue queue(&sim, "t.full");
  queue.SetMaxQueue(2);
  ASSERT_TRUE(queue.Offer(Priority::kBestEffort, Duration::Zero(), 0));
  ASSERT_TRUE(queue.Offer(Priority::kStandard, Duration::Zero(), 0));
  // Full; a critical arrival evicts the best-effort item, not itself.
  EXPECT_TRUE(queue.Offer(Priority::kCritical, Duration::Zero(), 0));
  EXPECT_EQ(queue.size(), 2);
  EXPECT_EQ(queue.SizeOf(Priority::kBestEffort), 0);
  EXPECT_EQ(queue.DroppedFor(AdmissionQueue::DropReason::kQueueFull), 1);
  // Full of >= classes: the incoming standard item is the one shed.
  EXPECT_FALSE(queue.Offer(Priority::kStandard, Duration::Zero(), 0));
  EXPECT_EQ(queue.DroppedFor(AdmissionQueue::DropReason::kQueueFull), 2);
  EXPECT_EQ(queue.size(), 2);
}

TEST(AdmissionQueueTest, ExpiredItemsPurgedAtDispatch) {
  Simulator sim(1);
  AdmissionQueue queue(&sim, "t.expiry");
  ASSERT_TRUE(
      queue.Offer(Priority::kStandard, Duration::Seconds(1), 0));
  ASSERT_TRUE(queue.Offer(Priority::kStandard, Duration::Zero(), 0));
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(2)).ok());
  // The first item is a second past its deadline: purged, and the
  // unbounded-deadline item dispatches instead.
  auto item = queue.Pop();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(queue.DroppedFor(AdmissionQueue::DropReason::kExpired), 1);
  EXPECT_FALSE(queue.Pop().has_value());
}

TEST(AdmissionQueueTest, RestoreFrontPreservesFifoHead) {
  Simulator sim(1);
  AdmissionQueue queue(&sim, "t.restore");
  ASSERT_TRUE(queue.Offer(Priority::kStandard, Duration::Zero(), 1));
  ASSERT_TRUE(queue.Offer(Priority::kStandard, Duration::Zero(), 2));
  auto head = queue.Pop();
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->handle, 1u);
  queue.RestoreFront(std::move(*head));
  auto again = queue.Pop();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->handle, 1u);
}

// Trips `breaker` with kMinSamples straight failures.
void Trip(CircuitBreaker& breaker) {
  for (int i = 0; i < CircuitBreaker::kMinSamples; ++i) {
    breaker.RecordFailure();
  }
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
}

TEST(CircuitBreakerTest, OpensAtFailureThreshold) {
  Simulator sim(1);
  CircuitBreaker breaker(&sim, "t.open");
  EXPECT_TRUE(breaker.Allow());
  // Success/failure pairs: from the first failure on, the window's failure
  // ratio is 1/2, at or above kFailureThreshold, so only the kMinSamples
  // gate keeps the breaker closed until the kMinSamples-th sample.
  static_assert(CircuitBreaker::kFailureThreshold <= 0.5);
  static_assert(CircuitBreaker::kMinSamples % 2 == 0);
  for (int sample = 1; sample < CircuitBreaker::kMinSamples; ++sample) {
    if (sample % 2 == 1) {
      breaker.RecordSuccess();
    } else {
      breaker.RecordFailure();
    }
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed)
        << "sample " << sample;
  }
  breaker.RecordFailure();  // kMinSamples samples, half of them failures.
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow());
  EXPECT_EQ(breaker.opens(), 1);
  EXPECT_EQ(breaker.rejected(), 1);
}

TEST(CircuitBreakerTest, HalfOpenProbesCloseOnSuccess) {
  Simulator sim(1);
  CircuitBreaker breaker(&sim, "t.close");
  Trip(breaker);
  ASSERT_TRUE(sim.RunFor(CircuitBreaker::kOpenDuration - Duration::Seconds(1))
                  .ok());
  EXPECT_FALSE(breaker.Allow());  // Still open.
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(1)).ok());
  // First Allow after kOpenDuration is the first half-open probe.
  EXPECT_TRUE(breaker.Allow());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  for (int i = 1; i < CircuitBreaker::kHalfOpenProbes; ++i) {
    EXPECT_TRUE(breaker.Allow());
  }
  EXPECT_FALSE(breaker.Allow());  // Probe budget spent.
  for (int i = 0; i < CircuitBreaker::kHalfOpenProbes; ++i) {
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
    breaker.RecordSuccess();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  // closed → open → half-open → closed, never skipping half-open.
  ASSERT_EQ(breaker.transitions().size(), 3u);
  EXPECT_EQ(breaker.transitions()[2].to, CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenProbeFailureReopens) {
  Simulator sim(1);
  CircuitBreaker breaker(&sim, "t.reopen");
  Trip(breaker);
  ASSERT_TRUE(sim.RunFor(CircuitBreaker::kOpenDuration).ok());
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow());
  EXPECT_EQ(breaker.opens(), 2);
}

uint64_t BreakerDigest(const CircuitBreaker& breaker) {
  StateDigest digest;
  breaker.DigestState(digest);
  return digest.value();
}

// The ledger's breaker rule, cause by cause: a completion is a success,
// abandonment and queue-full drops are failures, and every other cause is
// policy that leaves the breaker alone. Each cause runs against a fresh
// breaker and is compared with reference breakers fed directly.
TEST(RequestLedgerTest, BreakerRuleAndSloSamplePerCause) {
  using Cause = RequestLedger::Cause;
  for (size_t c = 0; c < RequestLedger::kNumCauses; ++c) {
    const Cause cause = static_cast<Cause>(c);
    Simulator sim(1);
    CircuitBreaker breaker(&sim, "t.ledger");
    CircuitBreaker untouched(&sim, "t.ledger");
    CircuitBreaker success(&sim, "t.ledger");
    success.RecordSuccess();
    CircuitBreaker failure(&sim, "t.ledger");
    failure.RecordFailure();

    RequestLedger ledger(&sim, {.service = "t.ledger"});
    ledger.SetBreaker(&breaker);
    RequestLedger::Request request;
    request.priority = Priority::kStandard;
    request.enqueue = sim.Now();
    ledger.Submit(request.priority);
    ledger.Finish(cause, request);
    EXPECT_EQ(ledger.CountOf(cause), 1) << "cause " << c;

    const CircuitBreaker& expected =
        cause == Cause::kCompleted ? success
        : cause == Cause::kFailed || cause == Cause::kQueueFull ? failure
                                                                : untouched;
    EXPECT_EQ(BreakerDigest(breaker), BreakerDigest(expected))
        << "cause " << c;

    // A completion's sample comes from Deliver(); a breaker fast-fail never
    // entered the service. Every other cause is one bad sample.
    const SloTracker* slo = ledger.slo_of(Priority::kStandard);
    const bool sampled = cause != Cause::kCompleted && cause != Cause::kBreaker;
    EXPECT_EQ(slo->good_total(), 0) << "cause " << c;
    EXPECT_EQ(slo->bad_total(), sampled ? 1 : 0) << "cause " << c;
  }
}

class BrownoutGovernorTest : public ::testing::Test {
 protected:
  BrownoutGovernorTest()
      : cluster_(&sim_, DefaultChassisSpec(), Snapdragon865Spec()) {
    cluster_.PowerOnAll(nullptr);
    const Status status = sim_.RunFor(Duration::Seconds(26));
    SOC_CHECK(status.ok());
  }

  // Raises the cluster draw by `util` CPU on every SoC.
  void Load(double util) {
    for (int i = 0; i < cluster_.num_socs(); ++i) {
      const Status status = cluster_.soc(i).AddCpuUtil(util);
      SOC_CHECK(status.ok());
    }
  }

  Simulator sim_{11};
  SocCluster cluster_;
};

TEST_F(BrownoutGovernorTest, LadderEngagesInOrderReleasesInReverse) {
  // Cap midway between idle and fully loaded draw: load pushes over it,
  // unloading falls comfortably under it.
  const double idle = cluster_.CurrentPower().watts();
  Load(0.9);
  const double loaded = cluster_.CurrentPower().watts();
  ASSERT_GT(loaded, idle + 10.0);
  BrownoutGovernor governor(&sim_, &cluster_,
                            Power::Watts((idle + loaded) / 2.0));
  governor.AddRung("a", 2, [](int) {}, [](int) {});
  governor.AddRung("b", 1, [](int) {}, [](int) {});
  governor.Start();
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(10)).ok());
  // One level per tick while over cap, rung order a:1, a:2, b:1, then
  // saturated.
  EXPECT_EQ(governor.level(), 3);
  EXPECT_EQ(governor.rung_level(0), 2);
  EXPECT_EQ(governor.rung_level(1), 1);
  EXPECT_EQ(governor.engagements(), 3);
  // Drop the load: draw falls below kReleaseFraction * cap and the ladder
  // unwinds one level per tick, deepest rung first.
  Load(-0.9);
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(10)).ok());
  EXPECT_EQ(governor.level(), 0);
  EXPECT_FALSE(governor.IsBrownedOut());
  EXPECT_EQ(governor.releases(), 3);
  const auto& history = governor.history();
  ASSERT_EQ(history.size(), 6u);
  // Engagements walk forward...
  EXPECT_TRUE(history[0].engage);
  EXPECT_EQ(history[0].rung, 0);
  EXPECT_EQ(history[0].level, 1);
  EXPECT_EQ(history[1].rung, 0);
  EXPECT_EQ(history[1].level, 2);
  EXPECT_EQ(history[2].rung, 1);
  EXPECT_EQ(history[2].level, 1);
  // ...releases mirror them exactly.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(history[3 + i].engage);
    EXPECT_EQ(history[3 + i].rung, history[2 - i].rung);
    EXPECT_EQ(history[3 + i].level, history[2 - i].level);
  }
}

TEST_F(BrownoutGovernorTest, HysteresisHoldsBeforeRelease) {
  const double idle = cluster_.CurrentPower().watts();
  Load(0.6);
  const double partial = cluster_.CurrentPower().watts();
  Load(0.3);
  const double loaded = cluster_.CurrentPower().watts();
  // A cap that the full load exceeds and the partial load sits just under,
  // inside the hysteresis band [kReleaseFraction * cap, cap].
  const double cap =
      2.0 * partial / (1.0 + BrownoutGovernor::kReleaseFraction);
  ASSERT_GT(loaded, cap);
  ASSERT_GE(partial, BrownoutGovernor::kReleaseFraction * cap);
  ASSERT_LT(idle, BrownoutGovernor::kReleaseFraction * cap);
  BrownoutGovernor governor(&sim_, &cluster_, Power::Watts(cap));
  governor.AddRung("a", 1, [](int) {}, [](int) {});
  governor.Start();
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(4)).ok());
  ASSERT_TRUE(governor.IsBrownedOut());
  // Back under the cap but inside the band: the level holds, tick after
  // tick.
  Load(-0.3);
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(1)).ok());
  EXPECT_TRUE(governor.IsBrownedOut());
  EXPECT_EQ(governor.releases(), 0);
  // Below the band: released on the next tick.
  Load(-0.6);
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(4)).ok());
  EXPECT_FALSE(governor.IsBrownedOut());
  EXPECT_EQ(governor.releases(), 1);
}

}  // namespace
}  // namespace soccluster
