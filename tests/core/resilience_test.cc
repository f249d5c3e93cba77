// Resilience-layer tests: heartbeat detection latency, the orchestrator's
// pending re-placement queue, and the ChaosRunner closed control loop.

#include "gtest/gtest.h"
#include "src/cluster/cluster.h"
#include "src/cluster/fault.h"
#include "src/core/chaos.h"
#include "src/core/health.h"
#include "src/core/orchestrator.h"
#include "src/hw/specs.h"

namespace soccluster {
namespace {

class ResilienceTest : public ::testing::Test {
 protected:
  void BootAll() {
    cluster_.PowerOnAll(nullptr);
    ASSERT_TRUE(sim_.RunFor(Duration::Seconds(30)).ok());
  }

  Simulator sim_{31};
  SocCluster cluster_{&sim_, DefaultChassisSpec(), Snapdragon865Spec()};
};

TEST_F(ResilienceTest, DetectionIsNeverInstantAndBoundedByThreshold) {
  BootAll();
  HealthConfig config;
  config.heartbeat_interval = Duration::Seconds(10);
  config.miss_threshold = 3;
  HealthMonitor monitor(&sim_, &cluster_, config);
  SimTime detected_at;
  int down_soc = -1;
  monitor.set_on_soc_down([&](int soc_index) {
    down_soc = soc_index;
    detected_at = sim_.Now();
  });
  monitor.Start();
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(1)).ok());  // Healthy beats.

  // Fail SoC 7 off the poll grid, so the fault sits strictly between beats.
  SimTime failed_at;
  sim_.ScheduleAfter(Duration::MillisF(4321.0), [&] {
    failed_at = sim_.Now();
    cluster_.soc(7).Fail();
  });
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(2)).ok());

  ASSERT_EQ(down_soc, 7);
  EXPECT_TRUE(monitor.IsMarkedDown(7));
  EXPECT_EQ(monitor.down_events(), 1);
  const Duration latency = detected_at - failed_at;
  // Never instant: at least (threshold - 1) intervals, at most threshold.
  EXPECT_GT(latency.nanos(), Duration::Seconds(20).nanos());
  EXPECT_LE(latency.nanos(), Duration::Seconds(30).nanos());
  // From the last healthy beat the verdict takes exactly threshold polls.
  EXPECT_DOUBLE_EQ(monitor.detection_latency_ms().running().mean(), 30000.0);
}

TEST_F(ResilienceTest, RecoveryRaisesUpEvent) {
  BootAll();
  HealthConfig config;
  config.heartbeat_interval = Duration::Seconds(10);
  config.miss_threshold = 3;
  HealthMonitor monitor(&sim_, &cluster_, config);
  int up_soc = -1;
  monitor.set_on_soc_up([&](int soc_index) { up_soc = soc_index; });
  monitor.Start();
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(1)).ok());

  cluster_.soc(3).Fail();
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(2)).ok());
  ASSERT_TRUE(monitor.IsMarkedDown(3));

  cluster_.soc(3).Repair();
  cluster_.soc(3).PowerOn(cluster_.chassis().soc_boot, nullptr);
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(2)).ok());
  EXPECT_EQ(up_soc, 3);
  EXPECT_FALSE(monitor.IsMarkedDown(3));
  EXPECT_EQ(monitor.up_events(), 1);
  EXPECT_GT(monitor.observed_outage_hours().running().mean(), 0.0);
}

TEST_F(ResilienceTest, LostReplicaIsQueuedAndDrainedOnRecovery) {
  BootAll();
  Orchestrator orchestrator(&sim_, &cluster_, PlacementPolicy::kSpread);
  // One replica saturates a SoC's CPU, so the full cluster leaves no
  // headroom for re-placement.
  ASSERT_TRUE(orchestrator.RegisterWorkload("full", {1.0, 1.0, 0.0, 0.0}).ok());
  ASSERT_TRUE(orchestrator.ScaleTo("full", cluster_.num_socs()).ok());

  cluster_.soc(5).Fail();
  orchestrator.OnSocFailure(5);
  EXPECT_EQ(orchestrator.replicas_lost(), 1);
  EXPECT_EQ(orchestrator.replicas_pending(), 1);
  Result<WorkloadStatus> status = orchestrator.GetStatus("full");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->pending_replicas, 1);
  EXPECT_EQ(status->running_replicas, cluster_.num_socs() - 1);

  // Repair + reboot returns the capacity; recovery drains the queue.
  cluster_.soc(5).Repair();
  cluster_.soc(5).PowerOn(cluster_.chassis().soc_boot, nullptr);
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(1)).ok());
  orchestrator.OnSocRecovered(5);
  EXPECT_EQ(orchestrator.replicas_pending(), 0);
  EXPECT_EQ(orchestrator.replicas_recovered(), 1);
  status = orchestrator.GetStatus("full");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->pending_replicas, 0);
  EXPECT_EQ(status->running_replicas, cluster_.num_socs());
}

TEST_F(ResilienceTest, ScaleDownDrainsAnotherWorkloadsQueue) {
  BootAll();
  Orchestrator orchestrator(&sim_, &cluster_, PlacementPolicy::kSpread);
  ASSERT_TRUE(orchestrator.RegisterWorkload("big", {1.0, 1.0, 0.0, 0.0}).ok());
  ASSERT_TRUE(
      orchestrator.RegisterWorkload("small", {1.0, 1.0, 0.0, 0.0}).ok());
  ASSERT_TRUE(orchestrator.ScaleTo("big", cluster_.num_socs() - 1).ok());
  ASSERT_TRUE(orchestrator.ScaleTo("small", 1).ok());

  Result<WorkloadStatus> status = orchestrator.GetStatus("small");
  ASSERT_TRUE(status.ok());
  ASSERT_EQ(status->placements.size(), 1u);
  const int victim = status->placements[0];
  cluster_.soc(victim).Fail();
  orchestrator.OnSocFailure(victim);
  EXPECT_EQ(orchestrator.replicas_pending(), 1);

  // Scaling "big" down frees a SoC; the drain re-places "small" there.
  ASSERT_TRUE(orchestrator.ScaleTo("big", cluster_.num_socs() - 2).ok());
  EXPECT_EQ(orchestrator.replicas_pending(), 0);
  status = orchestrator.GetStatus("small");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->running_replicas, 1);
  EXPECT_NE(status->placements[0], victim);
}

TEST_F(ResilienceTest, ExplicitRescaleSupersedesPendingQueue) {
  BootAll();
  Orchestrator orchestrator(&sim_, &cluster_, PlacementPolicy::kSpread);
  ASSERT_TRUE(orchestrator.RegisterWorkload("full", {1.0, 1.0, 0.0, 0.0}).ok());
  ASSERT_TRUE(orchestrator.ScaleTo("full", cluster_.num_socs()).ok());
  cluster_.soc(0).Fail();
  orchestrator.OnSocFailure(0);
  ASSERT_EQ(orchestrator.replicas_pending(), 1);
  // The operator declares a new target: the stale pending entry is dropped.
  ASSERT_TRUE(orchestrator.ScaleTo("full", 10).ok());
  EXPECT_EQ(orchestrator.replicas_pending(), 0);
}

TEST_F(ResilienceTest, ChaosRunnerClosesTheLoopWithoutOracle) {
  BootAll();
  Orchestrator orchestrator(&sim_, &cluster_, PlacementPolicy::kSpread);
  ASSERT_TRUE(
      orchestrator.RegisterWorkload("serving", {0.4, 2.0, 0.0, 0.0}).ok());
  ASSERT_TRUE(orchestrator.ScaleTo("serving", 80).ok());

  ChaosConfig config;
  config.faults.mtbf_per_soc = Duration::Hours(24 * 5);
  config.faults.transient_fraction = 1.0;  // Every fault recovers.
  config.faults.transient_outage = Duration::Minutes(3);
  config.faults.seed = 77;
  config.health.heartbeat_interval = Duration::Seconds(10);
  config.health.miss_threshold = 3;
  config.horizon = Duration::Hours(24 * 5);
  ChaosRunner chaos(&sim_, &cluster_, &orchestrator, config);
  chaos.Start();
  // Horizon plus settle time: every outage recovers and the queue drains.
  ASSERT_TRUE(sim_.RunFor(config.horizon + Duration::Hours(1)).ok());

  const ChaosReport report = chaos.Report();
  ASSERT_GT(report.failures, 0);
  EXPECT_EQ(report.repairs, report.failures);
  EXPECT_EQ(report.down_events, report.failures);
  EXPECT_EQ(report.up_events, report.down_events);
  EXPECT_GT(report.availability, 0.9);
  EXPECT_LT(report.availability, 1.0);
  // Detection through heartbeats is never instant.
  EXPECT_GT(report.detection_latency_ms, 20000.0);
  EXPECT_LE(report.detection_latency_ms, 30000.0);
  EXPECT_GT(report.mttr_hours, 0.0);
  // Closed loop: everything displaced was recovered and the fleet is whole.
  EXPECT_EQ(report.replicas_pending, 0);
  EXPECT_EQ(orchestrator.TotalReplicas(), 80);
}

TEST_F(ResilienceTest, PhiAccrualDetectsFasterThanFixedMiss) {
  BootAll();
  HealthConfig config;
  config.heartbeat_interval = Duration::Seconds(10);
  config.miss_threshold = 3;
  config.mode = DetectorMode::kPhiAccrual;
  config.phi_threshold = 8.0;
  HealthMonitor monitor(&sim_, &cluster_, config);
  SimTime detected_at;
  int down_soc = -1;
  monitor.set_on_soc_down([&](int soc_index) {
    down_soc = soc_index;
    detected_at = sim_.Now();
  });
  monitor.Start();
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(1)).ok());  // Learn the rhythm.

  SimTime failed_at;
  sim_.ScheduleAfter(Duration::MillisF(4321.0), [&] {
    failed_at = sim_.Now();
    cluster_.soc(7).Fail();
  });
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(2)).ok());

  ASSERT_EQ(down_soc, 7);
  EXPECT_TRUE(monitor.IsMarkedDown(7));
  // Constant 10 s beats learn a tight distribution (sigma floored at one
  // tenth of the interval), so phi crosses 8 on the second missed poll:
  // 20 s after the last healthy beat, one full interval sooner than the
  // fixed-miss verdict at miss_threshold = 3.
  EXPECT_DOUBLE_EQ(monitor.detection_latency_ms().running().mean(), 20000.0);
  const Duration latency = detected_at - failed_at;
  EXPECT_GT(latency.nanos(), Duration::Seconds(10).nanos());
  EXPECT_LE(latency.nanos(), Duration::Seconds(20).nanos());
}

TEST_F(ResilienceTest, PhiAccrualFlapsLessOnFlakyHeartbeats) {
  BootAll();
  // Two monitors watch the same cluster with identical seeds: each draws
  // its own (identical) heartbeat-loss stream, so both see the same lost
  // beats and only the verdict rule differs.
  HealthConfig fixed;
  fixed.heartbeat_interval = Duration::Seconds(10);
  fixed.miss_threshold = 3;
  fixed.seed = 99;
  HealthConfig phi = fixed;
  phi.mode = DetectorMode::kPhiAccrual;
  phi.phi_threshold = 8.0;
  HealthMonitor fixed_monitor(&sim_, &cluster_, fixed);
  HealthMonitor phi_monitor(&sim_, &cluster_, phi);
  fixed_monitor.Start();
  phi_monitor.Start();
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(2)).ok());  // Clean history.

  cluster_.soc(5).SetHeartbeatLossProb(0.4);  // Lossy management path.
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(45)).ok());

  // The fixed threshold keeps tripping on loss bursts; phi widens the
  // learned inter-arrival distribution and stops flapping.
  EXPECT_GT(fixed_monitor.down_events(), 1);
  EXPECT_LT(phi_monitor.down_events(), fixed_monitor.down_events());
  // The SoC itself never failed.
  EXPECT_TRUE(cluster_.soc(5).IsUsable());
}

TEST_F(ResilienceTest, NeverHealthySocIsSurfacedWithoutVerdict) {
  // SoC 5's flash hangs during boot: powered, never a first beat.
  for (int i = 0; i < cluster_.num_socs(); ++i) {
    cluster_.soc(i).PowerOn(
        i == 5 ? Duration::Hours(10) : cluster_.chassis().soc_boot, nullptr);
  }
  HealthConfig config;
  config.heartbeat_interval = Duration::Seconds(10);
  HealthMonitor monitor(&sim_, &cluster_, config);
  int down_events = 0;
  monitor.set_on_soc_down([&](int) { ++down_events; });
  monitor.Start();

  // Stuck in boot: surfaced by the gauge, never handed to the control loop
  // as a down verdict, however long it stays stuck.
  for (int minute = 1; minute <= 30; ++minute) {
    ASSERT_TRUE(sim_.RunFor(Duration::Minutes(1)).ok());
    ASSERT_EQ(monitor.never_healthy(), 1) << "minute " << minute;
  }
  EXPECT_DOUBLE_EQ(sim_.metrics().GetGauge("health.never_healthy")->value(),
                   1.0);
  EXPECT_FALSE(monitor.IsMarkedDown(5));
  EXPECT_EQ(down_events, 0);
  EXPECT_EQ(monitor.down_events(), 0);
  // Power-cycling it out of the stuck boot clears the gauge.
  cluster_.soc(5).Fail();
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(10)).ok());
  EXPECT_EQ(monitor.never_healthy(), 0);
}

TEST_F(ResilienceTest, PhiIdleWhenHealthy) {
  BootAll();
  HealthConfig config;
  config.mode = DetectorMode::kPhiAccrual;
  HealthMonitor monitor(&sim_, &cluster_, config);
  monitor.Start();
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(30)).ok());
  EXPECT_EQ(monitor.down_events(), 0);
  EXPECT_EQ(monitor.never_healthy(), 0);
  for (int i = 0; i < cluster_.num_socs(); ++i) {
    EXPECT_EQ(monitor.Phi(i), 0.0) << "soc " << i;
  }
}

}  // namespace
}  // namespace soccluster
