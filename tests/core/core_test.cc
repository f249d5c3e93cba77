// Orchestrator, autoscaler, and telemetry tests.

#include <gtest/gtest.h>

#include "src/base/check.h"
#include "src/cluster/fault.h"
#include "src/core/autoscaler.h"
#include "src/core/orchestrator.h"
#include "src/core/telemetry.h"
#include "src/trace/gaming_trace.h"
#include "src/trace/loadgen.h"

namespace soccluster {
namespace {

class OrchestratorTest : public ::testing::Test {
 protected:
  OrchestratorTest()
      : cluster_(&sim_, DefaultChassisSpec(), Snapdragon865Spec()),
        orchestrator_(&sim_, &cluster_, PlacementPolicy::kSpread) {
    cluster_.PowerOnAll(nullptr);
    const Status status = sim_.RunFor(Duration::Seconds(26));
    SOC_CHECK(status.ok());
  }

  Simulator sim_{41};
  SocCluster cluster_;
  Orchestrator orchestrator_;
};

TEST_F(OrchestratorTest, RegisterValidation) {
  EXPECT_TRUE(orchestrator_.RegisterWorkload("svc", {0.25, 1.0, 0.0, 0.0}).ok());
  EXPECT_EQ(orchestrator_.RegisterWorkload("svc", {0.25, 1.0, 0.0, 0.0}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(orchestrator_.RegisterWorkload("", {0.25, 1.0, 0.0, 0.0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(orchestrator_.RegisterWorkload("bad", {1.5, 1.0, 0.0, 0.0}).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(OrchestratorTest, ScaleUpPlacesReplicas) {
  ASSERT_TRUE(orchestrator_.RegisterWorkload("web", {0.25, 2.0, 0.0, 0.0}).ok());
  ASSERT_TRUE(orchestrator_.ScaleTo("web", 10).ok());
  auto status = orchestrator_.GetStatus("web");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->desired_replicas, 10);
  EXPECT_EQ(status->running_replicas, 10);
  EXPECT_EQ(orchestrator_.TotalReplicas(), 10);
  // Spread policy lands them on ten distinct SoCs.
  EXPECT_EQ(orchestrator_.SocsInUse(), 10);
}

TEST_F(OrchestratorTest, ScaleDownEvicts) {
  ASSERT_TRUE(orchestrator_.RegisterWorkload("web", {0.25, 2.0, 0.0, 0.0}).ok());
  ASSERT_TRUE(orchestrator_.ScaleTo("web", 10).ok());
  ASSERT_TRUE(orchestrator_.ScaleTo("web", 3).ok());
  EXPECT_EQ(orchestrator_.TotalReplicas(), 3);
  // CPU released on evicted SoCs.
  double total_util = 0.0;
  for (int i = 0; i < 60; ++i) {
    total_util += cluster_.soc(i).cpu_util();
  }
  EXPECT_NEAR(total_util, 3 * 0.25, 1e-9);
}

TEST_F(OrchestratorTest, CapacityExhaustionIsAtomic) {
  ASSERT_TRUE(orchestrator_.RegisterWorkload("big", {1.0, 4.0, 0.0, 0.0}).ok());
  // 60 SoCs can hold 60 single-SoC replicas; 61 must fail atomically.
  EXPECT_EQ(orchestrator_.ScaleTo("big", 61).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(orchestrator_.TotalReplicas(), 0);
  EXPECT_TRUE(orchestrator_.ScaleTo("big", 60).ok());
}

TEST_F(OrchestratorTest, MemoryConstraintLimitsPacking) {
  ASSERT_TRUE(orchestrator_.RegisterWorkload("ram", {0.01, 5.0, 0.0, 0.0}).ok());
  // 12 GB per SoC -> two 5 GB replicas fit, a third must go elsewhere.
  Orchestrator packer(&sim_, &cluster_, PlacementPolicy::kPack);
  ASSERT_TRUE(packer.RegisterWorkload("ram", {0.01, 5.0, 0.0, 0.0}).ok());
  ASSERT_TRUE(packer.ScaleTo("ram", 3).ok());
  EXPECT_EQ(packer.SocsInUse(), 2);
}

TEST_F(OrchestratorTest, UnknownWorkloadFails) {
  EXPECT_EQ(orchestrator_.ScaleTo("ghost", 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(orchestrator_.GetStatus("ghost").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(orchestrator_.ScaleTo("ghost", -1).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(OrchestratorTest, FailureTriggersReplacement) {
  ASSERT_TRUE(orchestrator_.RegisterWorkload("svc", {0.5, 1.0, 0.0, 0.0}).ok());
  ASSERT_TRUE(orchestrator_.ScaleTo("svc", 5).ok());
  auto before = orchestrator_.GetStatus("svc");
  ASSERT_TRUE(before.ok());
  const int victim = before->placements[0];
  cluster_.soc(victim).Fail();
  orchestrator_.OnSocFailure(victim);
  auto after = orchestrator_.GetStatus("svc");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->running_replicas, 5);
  EXPECT_EQ(orchestrator_.replicas_recovered(), 1);
  EXPECT_EQ(orchestrator_.replicas_lost(), 0);
  for (int placement : after->placements) {
    EXPECT_NE(placement, victim);
  }
}

// SoC 0 fails and reboots before any monitor notices: the first
// workload's replica keeps its (now wiped) reservation while a second
// workload lands on the rebooted SoC. Scaling the first away must not take
// the second's CPU.
TEST_F(OrchestratorTest, ScaleDownAfterUnnoticedRebootKeepsCoResidentCharge) {
  ASSERT_TRUE(orchestrator_.RegisterWorkload("a", {0.3, 1.0, 0.0, 0.0}).ok());
  ASSERT_TRUE(orchestrator_.RegisterWorkload("b", {0.2, 1.0, 0.0, 0.0}).ok());
  ASSERT_TRUE(orchestrator_.ScaleTo("a", 1).ok());
  ASSERT_EQ(orchestrator_.GetStatus("a")->placements[0], 0);
  SocModel& soc = cluster_.soc(0);
  soc.Fail();
  soc.Repair();
  ASSERT_TRUE(soc.PowerOn(Duration::Seconds(20), nullptr).ok());
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(25)).ok());
  ASSERT_TRUE(orchestrator_.ScaleTo("b", 1).ok());
  ASSERT_EQ(orchestrator_.GetStatus("b")->placements[0], 0);
  ASSERT_TRUE(orchestrator_.ScaleTo("a", 0).ok());
  EXPECT_NEAR(soc.cpu_util(), 0.2, 1e-12);
  ASSERT_TRUE(orchestrator_.ScaleTo("b", 0).ok());
  EXPECT_NEAR(soc.cpu_util(), 0.0, 1e-12);
}

TEST_F(OrchestratorTest, ReplicasLostWhenClusterFull) {
  ASSERT_TRUE(orchestrator_.RegisterWorkload("full", {1.0, 1.0, 0.0, 0.0}).ok());
  ASSERT_TRUE(orchestrator_.ScaleTo("full", 60).ok());
  cluster_.soc(0).Fail();
  orchestrator_.OnSocFailure(0);
  EXPECT_EQ(orchestrator_.replicas_lost(), 1);
  auto status = orchestrator_.GetStatus("full");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->desired_replicas, 59);
}

TEST_F(OrchestratorTest, EndToEndWithFaultInjector) {
  ASSERT_TRUE(orchestrator_.RegisterWorkload("svc", {0.3, 1.0, 0.0, 0.0}).ok());
  ASSERT_TRUE(orchestrator_.ScaleTo("svc", 40).ok());
  FaultConfig config;
  config.mtbf_per_soc = Duration::Hours(24 * 20);
  config.repair_time = Duration::Zero();
  FaultInjector injector(&sim_, &cluster_, config);
  injector.set_on_failure(
      [this](int soc_index) { orchestrator_.OnSocFailure(soc_index); });
  injector.Start(Duration::Hours(24 * 30));
  sim_.Run();
  EXPECT_GT(injector.failures_injected(), 0);
  auto status = orchestrator_.GetStatus("svc");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->running_replicas,
            status->desired_replicas);  // Survivors keep running.
}

class AutoscalerTest : public ::testing::Test {
 protected:
  AutoscalerTest()
      : cluster_(&sim_, DefaultChassisSpec(), Snapdragon865Spec()),
        fleet_(&sim_, &cluster_, DlDevice::kSocGpu, DnnModel::kResNet50,
               Precision::kFp32) {
    cluster_.PowerOnAll(nullptr);
    const Status status = sim_.RunFor(Duration::Seconds(26));
    SOC_CHECK(status.ok());
  }

  Simulator sim_{43};
  SocCluster cluster_;
  SocServingFleet fleet_;
};

TEST_F(AutoscalerTest, PowersOffIdleSocsAtLightLoad) {
  ClusterAutoscaler autoscaler(&sim_, &cluster_, &fleet_, AutoscalerConfig{});
  autoscaler.Start();
  OpenLoopSource source(&sim_, 5.0, Duration::Seconds(60),
                        [this] { fleet_.Submit(); });
  source.Start();
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(60)).ok());
  // One SoC serves 55+/s; at 5/s the autoscaler keeps active + warm pool
  // powered and cuts the rest.
  EXPECT_LE(autoscaler.PoweredCount(), 5);
  EXPECT_GE(autoscaler.PoweredCount(), 1);
  EXPECT_GT(fleet_.completed(), 200);
}

TEST_F(AutoscalerTest, ScalesUpUnderHeavyLoad) {
  ClusterAutoscaler autoscaler(&sim_, &cluster_, &fleet_, AutoscalerConfig{});
  autoscaler.Start();
  OpenLoopSource source(&sim_, 1500.0, Duration::Seconds(60),
                        [this] { fleet_.Submit(); });
  source.Start();
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(60)).ok());
  // 1500/s needs ~27 SoCs at 55.4/s each; with 85% target utilization the
  // autoscaler lands above 30.
  EXPECT_GE(autoscaler.desired_active(), 28);
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(30)).ok());
  EXPECT_EQ(fleet_.queue_length(), 0);
}

TEST_F(AutoscalerTest, RespectsMinActive) {
  ClusterAutoscaler autoscaler(&sim_, &cluster_, &fleet_, AutoscalerConfig{});
  autoscaler.Start();
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(30)).ok());
  // No traffic sizes the fleet at zero; the one-SoC minimum holds it up,
  // and the two-SoC warm pool stays powered beside it.
  EXPECT_EQ(autoscaler.desired_active(), 1);
  EXPECT_EQ(autoscaler.PoweredCount(), 3);
}

TEST_F(AutoscalerTest, ClusterPowerDropsWhenIdle) {
  ClusterAutoscaler autoscaler(&sim_, &cluster_, &fleet_, AutoscalerConfig{});
  autoscaler.Start();
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(30)).ok());
  // All-idle-on draws ~146 W; with 57 SoCs off it falls to roughly
  // overhead + few idle + leakage.
  EXPECT_LT(cluster_.CurrentPower().watts(), 85.0);
}

TEST(TelemetryTest, CapturesSamplesOnPeriod) {
  Simulator sim(47);
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  ClusterTelemetry telemetry(&sim, &cluster, Duration::Seconds(10));
  telemetry.Start();
  ASSERT_TRUE(sim.RunFor(Duration::Minutes(5)).ok());
  telemetry.Stop();
  EXPECT_EQ(telemetry.samples().size(), 30u);
  EXPECT_GT(telemetry.samples().front().power_watts, 0.0);
}

TEST(TelemetryTest, TracksNetworkThroughput) {
  Simulator sim(47);
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  ClusterTelemetry telemetry(&sim, &cluster, Duration::Seconds(1));
  telemetry.Start();
  auto load = cluster.network().AddConstantLoad(
      cluster.soc_node(0), cluster.external_node(), DataRate::Gbps(2.0));
  ASSERT_TRUE(load.ok());
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(10)).ok());
  EXPECT_NEAR(telemetry.PeakOutboundGbps(), 2.0, 1e-6);
  EXPECT_NEAR(telemetry.MeanOutboundUtilization(), 0.1, 0.01);
}

}  // namespace
}  // namespace soccluster
