// Request-level resilience tests: load shedding, deadlines and retries in
// the serving fleet; mid-pipeline failover in collaborative
// inference; and the bitrate-ladder degradation path in live transcoding.

#include "gtest/gtest.h"
#include "src/cluster/cluster.h"
#include "src/hw/specs.h"
#include "src/workload/dl/collab.h"
#include "src/workload/dl/serving.h"
#include "src/workload/video/live.h"

namespace soccluster {
namespace {

class ServingResilienceTest : public ::testing::Test {
 protected:
  void Boot() {
    cluster_.PowerOnAll(nullptr);
    ASSERT_TRUE(sim_.RunFor(Duration::Seconds(30)).ok());
  }

  Duration ServiceTime(const SocServingFleet& fleet) const {
    return Duration::SecondsF(1.0 / fleet.PerSocThroughput());
  }

  Simulator sim_{41};
  SocCluster cluster_{&sim_, DefaultChassisSpec(), Snapdragon865Spec()};
};

TEST_F(ServingResilienceTest, MaxQueueShedsOverload) {
  Boot();
  SocServingFleet fleet(&sim_, &cluster_, DlDevice::kSocGpu,
                        DnnModel::kResNet50, Precision::kFp32);
  fleet.SetActiveCount(1);
  fleet.admission().SetMaxQueue(2);
  // One dispatches immediately, two queue, the other seven are shed.
  for (int i = 0; i < 10; ++i) {
    fleet.Submit();
  }
  EXPECT_EQ(fleet.shed(), 7);
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(5)).ok());
  EXPECT_EQ(fleet.completed(), 3);
  EXPECT_EQ(fleet.failed(), 0);
}

TEST_F(ServingResilienceTest, DeadlineDropsStaleRequests) {
  Boot();
  SocServingFleet fleet(&sim_, &cluster_, DlDevice::kSocGpu,
                        DnnModel::kResNet50, Precision::kFp32);
  fleet.SetActiveCount(1);
  // Queueing delay beyond ~five service times means the client hung up.
  fleet.SetDeadline(Duration::SecondsF(5.0 / fleet.PerSocThroughput()));
  for (int i = 0; i < 100; ++i) {
    fleet.Submit();
  }
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(1)).ok());
  EXPECT_GT(fleet.completed(), 0);
  EXPECT_GT(fleet.deadline_expired(), 0);
  EXPECT_EQ(fleet.completed() + fleet.deadline_expired(), 100);
  // Expired requests never occupied a SoC, so the survivors met the bound.
  EXPECT_LT(fleet.completed(), 10);
}

TEST_F(ServingResilienceTest, RetryRecoversFromMidFlightSocDeath) {
  Boot();
  SocServingFleet fleet(&sim_, &cluster_, DlDevice::kSocGpu,
                        DnnModel::kResNet50, Precision::kFp32);
  fleet.SetActiveCount(2);
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff = Duration::Millis(1);
  fleet.SetRetryPolicy(policy, /*seed=*/5);
  fleet.Submit();  // Dispatches onto SoC 0.
  sim_.ScheduleAfter(ServiceTime(fleet) * 0.5,
                     [this] { cluster_.soc(0).Fail(); });
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(5)).ok());
  // The first attempt died with its SoC; the retry landed on SoC 1.
  EXPECT_EQ(fleet.retries(), 1);
  EXPECT_EQ(fleet.completed(), 1);
  EXPECT_EQ(fleet.failed(), 0);
}

TEST_F(ServingResilienceTest, WithoutRetryTheRequestIsLost) {
  Boot();
  SocServingFleet fleet(&sim_, &cluster_, DlDevice::kSocGpu,
                        DnnModel::kResNet50, Precision::kFp32);
  fleet.SetActiveCount(2);
  fleet.Submit();
  sim_.ScheduleAfter(ServiceTime(fleet) * 0.5,
                     [this] { cluster_.soc(0).Fail(); });
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(5)).ok());
  EXPECT_EQ(fleet.failed(), 1);
  EXPECT_EQ(fleet.completed(), 0);
  EXPECT_EQ(fleet.retries(), 0);
}

TEST_F(ServingResilienceTest, ExhaustedRetryBudgetDeniesRetries) {
  Boot();
  SocServingFleet fleet(&sim_, &cluster_, DlDevice::kSocGpu,
                        DnnModel::kResNet50, Precision::kFp32);
  fleet.SetActiveCount(3);
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff = Duration::Millis(1);
  fleet.SetRetryPolicy(policy, /*seed=*/5);
  // One token, never refilled: the first retry spends it, the second is
  // denied and the request fails despite attempts remaining.
  fleet.SetRetryBudget(/*tokens_per_success=*/0.0, /*max_tokens=*/1.0);
  fleet.Submit();
  const Duration service = ServiceTime(fleet);
  sim_.ScheduleAfter(service * 0.5, [this] { cluster_.soc(0).Fail(); });
  sim_.ScheduleAfter(service * 1.6, [this] { cluster_.soc(1).Fail(); });
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(5)).ok());
  EXPECT_EQ(fleet.retries(), 1);
  EXPECT_EQ(fleet.failed(), 1);
  EXPECT_EQ(fleet.completed(), 0);
}

TEST_F(ServingResilienceTest, ThrottledSocServesProportionallySlower) {
  Boot();
  SocServingFleet fleet(&sim_, &cluster_, DlDevice::kSocGpu,
                        DnnModel::kResNet50, Precision::kFp32);
  fleet.SetActiveCount(1);
  const double nominal_ms = 1000.0 / fleet.PerSocThroughput();
  cluster_.soc(0).SetThrottleFactor(0.5);
  fleet.Submit();
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(5)).ok());
  ASSERT_EQ(fleet.completed(), 1);
  EXPECT_NEAR(fleet.latencies().Mean(), 2.0 * nominal_ms, 0.01 * nominal_ms);
}

TEST(CollabResilienceTest, FailoverSurvivesMemberDeath) {
  Simulator sim(43);
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(30)).ok());

  // The same inference with no failure, for reference.
  CollabResult undisturbed;
  CollaborativeInference reference(&sim, &cluster, DnnModel::kResNet50,
                                   /*num_socs=*/5, /*pipelined=*/false);
  reference.Run([&](const CollabResult& r) { undisturbed = r; });
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(1)).ok());
  ASSERT_TRUE(undisturbed.completed);

  CollabResult result;
  bool done = false;
  CollaborativeInference collab(&sim, &cluster, DnnModel::kResNet50,
                                /*num_socs=*/5, /*pipelined=*/false);
  collab.Run([&](const CollabResult& r) {
    result = r;
    done = true;
  });
  // Kill one participant mid-run (ResNet-50 over 5 SoCs takes ~40 ms).
  sim.ScheduleAfter(Duration::MillisF(10.0),
                    [&] { cluster.soc(2).Fail(); });
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(10)).ok());

  ASSERT_TRUE(done);
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.failovers, 1);
  EXPECT_EQ(result.surviving_socs, 4);
  EXPECT_EQ(collab.num_members(), 4);
  // The failover penalty and re-run are on the critical path.
  EXPECT_GT(result.total,
            undisturbed.total + CollaborativeInference::kFailoverPenalty);
}

TEST(CollabResilienceTest, AbortsWhenEveryMemberDies) {
  Simulator sim(44);
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(30)).ok());

  CollabResult result;
  bool done = false;
  CollaborativeInference collab(&sim, &cluster, DnnModel::kResNet50,
                                /*num_socs=*/2, /*pipelined=*/false);
  collab.Run([&](const CollabResult& r) {
    result = r;
    done = true;
  });
  sim.ScheduleAfter(Duration::MillisF(5.0), [&] {
    cluster.soc(0).Fail();
    cluster.soc(1).Fail();
  });
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(10)).ok());

  ASSERT_TRUE(done);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.surviving_socs, 0);
}

TEST(LiveResilienceTest, FailureWalksStreamsDownTheBitrateLadder) {
  Simulator sim(45);
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(30)).ok());

  LiveTranscodingService service(&sim, &cluster, PlacementPolicy::kSpread);
  // Fill the cluster to CPU-admission rejection: every survivor is at
  // capacity, so displaced streams can only re-home at a lower rung.
  while (service
             .StartStream(VbenchVideo::kV4Presentation,
                          TranscodeBackend::kSocCpu)
             .ok()) {
  }
  const int before = service.active_streams();
  ASSERT_GT(before, 0);
  ASSERT_EQ(service.StreamsAtRung(0), before);

  const int victim_streams = service.StreamsOnSoc(0);
  ASSERT_GT(victim_streams, 0);
  cluster.soc(0).Fail();
  service.OnSocFailure(0);

  EXPECT_EQ(service.StreamsOnSoc(0), 0);
  const int degraded = static_cast<int>(service.streams_degraded());
  const int dropped = static_cast<int>(service.streams_dropped());
  EXPECT_GT(degraded + dropped, 0);
  // Conservation: every displaced stream was re-homed or dropped.
  EXPECT_EQ(service.active_streams(), before - dropped);
  EXPECT_EQ(service.StreamsAtRung(1) + service.StreamsAtRung(2), degraded);
}

}  // namespace
}  // namespace soccluster
