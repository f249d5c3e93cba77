#include "src/cluster/cluster.h"

#include <gtest/gtest.h>

#include "src/cluster/bmc.h"
#include "src/cluster/fault.h"
#include "src/cluster/virtualization.h"

namespace soccluster {
namespace {

class SocClusterTest : public ::testing::Test {
 protected:
  SocClusterTest()
      : cluster_(&sim_, DefaultChassisSpec(), Snapdragon865Spec()) {}

  void BootAll() {
    cluster_.PowerOnAll(nullptr);
    ASSERT_TRUE(
        sim_.RunFor(DefaultChassisSpec().soc_boot + Duration::Seconds(1)).ok());
    ASSERT_EQ(cluster_.NumUsable(), 60);
  }

  Simulator sim_{7};
  SocCluster cluster_;
};

TEST_F(SocClusterTest, TopologyShape) {
  EXPECT_EQ(cluster_.num_socs(), 60);
  // 1 ESB-external + 12 PCB-ESB + 60 SoC-PCB bidirectional pairs.
  EXPECT_EQ(cluster_.network().num_links(), 2 * (1 + 12 + 60));
  EXPECT_EQ(cluster_.PcbOf(0), 0);
  EXPECT_EQ(cluster_.PcbOf(4), 0);
  EXPECT_EQ(cluster_.PcbOf(5), 1);
  EXPECT_EQ(cluster_.PcbOf(59), 11);
}

TEST_F(SocClusterTest, AllSocsStartOff) {
  EXPECT_EQ(cluster_.NumUsable(), 0);
  EXPECT_EQ(cluster_.NumFailed(), 0);
}

TEST_F(SocClusterTest, PowerOnAllSignalsWhenReady) {
  bool ready = false;
  cluster_.PowerOnAll([&] { ready = true; });
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(26)).ok());
  EXPECT_TRUE(ready);
  EXPECT_EQ(cluster_.NumUsable(), 60);
}

TEST_F(SocClusterTest, PowerOnAllWithNothingToBootStillFires) {
  BootAll();
  bool ready = false;
  cluster_.PowerOnAll([&] { ready = true; });
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(1)).ok());
  EXPECT_TRUE(ready);
}

TEST_F(SocClusterTest, IdlePowerMatchesCalibration) {
  BootAll();
  // 60 x 1.3 W idle + 68 W chassis overhead = 146 W.
  EXPECT_NEAR(cluster_.CurrentPower().watts(), 146.0, 0.5);
}

TEST_F(SocClusterTest, FullLoadV5PowerMatchesTable4) {
  BootAll();
  // Three V5 streams saturate a SoC at util 3/3.2 (§4, Table 3); the
  // cluster then reads ~589 W at the wall (Table 4 avg peak).
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(cluster_.soc(i).SetCpuUtil(3.0 / 3.2).ok());
  }
  EXPECT_NEAR(cluster_.CurrentPower().watts(), 589.0, 6.0);
  EXPECT_FALSE(cluster_.OverPowerBudget());
}

TEST_F(SocClusterTest, RoutesBetweenSocsOnSamePcb) {
  BootAll();
  Network& net = cluster_.network();
  bool done = false;
  auto flow = net.StartFlow(cluster_.soc_node(0), cluster_.soc_node(1),
                            DataSize::Megabytes(1.0), DataRate::Zero(),
                            [&] { done = true; });
  ASSERT_TRUE(flow.ok());
  // Two 1GE hops, not through the ESB uplink.
  EXPECT_NEAR(net.FlowRate(*flow)->ToGbps(), 1.0, 1e-9);
  sim_.Run();
  EXPECT_TRUE(done);
}

TEST_F(SocClusterTest, CrossPcbTrafficTraversesEsb) {
  Network& net = cluster_.network();
  auto load = net.AddConstantLoad(cluster_.soc_node(0), cluster_.soc_node(5),
                                  DataRate::Mbps(500.0));
  ASSERT_TRUE(load.ok());
  // PCB0 uplink (toward ESB) carries the load.
  EXPECT_NEAR(net.LinkUtilization(cluster_.pcb_uplink_out(0)), 0.5, 1e-9);
  // The external uplink does not.
  EXPECT_NEAR(net.LinkUtilization(cluster_.esb_uplink_out()), 0.0, 1e-9);
}

TEST_F(SocClusterTest, MeanUtilAveragesUsableSocs) {
  BootAll();
  ASSERT_TRUE(cluster_.soc(0).SetCpuUtil(1.0).ok());
  EXPECT_NEAR(cluster_.MeanSocCpuUtil(), 1.0 / 60.0, 1e-12);
}

TEST_F(SocClusterTest, EnergyAggregatesSocsAndOverhead) {
  BootAll();
  const Energy e0 = cluster_.TotalEnergy();
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(100)).ok());
  const Energy delta = cluster_.TotalEnergy() - e0;
  EXPECT_NEAR(delta.joules(), 146.0 * 100.0, 50.0);
}

TEST_F(SocClusterTest, OverPowerBudgetDetection) {
  BootAll();
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(cluster_.soc(i).SetCpuUtil(1.0).ok());
    ASSERT_TRUE(cluster_.soc(i).SetGpuUtil(1.0).ok());
    ASSERT_TRUE(cluster_.soc(i).SetDspUtil(1.0).ok());
  }
  // Every engine fully lit exceeds the 700 W supplies.
  EXPECT_TRUE(cluster_.OverPowerBudget());
}

TEST(BmcTest, SamplesPowerOnPeriod) {
  Simulator sim(3);
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  BmcModel bmc(&sim, &cluster, BmcConfig{});
  bmc.StartSampling();
  ASSERT_TRUE(sim.RunFor(Duration::SecondsF(10.5)).ok());
  EXPECT_EQ(bmc.num_samples(), 10);
  EXPECT_GT(bmc.LastPowerSample().watts(), 0.0);
  bmc.StopSampling();
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(10)).ok());
  EXPECT_EQ(bmc.num_samples(), 10);
}

TEST(BmcTest, TemperatureRisesWithPower) {
  Simulator sim(3);
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(30)).ok());
  BmcConfig config;
  BmcModel bmc(&sim, &cluster, config);
  bmc.StartSampling();
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(10)).ok());
  const double idle_temp = bmc.TemperatureCelsius();
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(cluster.soc(i).SetCpuUtil(1.0).ok());
  }
  ASSERT_TRUE(sim.RunFor(Duration::Minutes(20)).ok());
  EXPECT_GT(bmc.TemperatureCelsius(), idle_temp + 10.0);
  EXPECT_GT(bmc.FanDuty(), 0.25);
  EXPECT_LE(bmc.FanDuty(), 1.0);
}

TEST(BmcTest, PowerStatsTrackLoadSteps) {
  Simulator sim(3);
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(30)).ok());
  BmcModel bmc(&sim, &cluster, BmcConfig{});
  bmc.StartSampling();
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(20)).ok());
  const double idle = bmc.PowerSamples().mean();
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(cluster.soc(i).SetCpuUtil(1.0).ok());
  }
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(20)).ok());
  EXPECT_GT(bmc.PowerSamples().max(), idle + 300.0);
}

TEST(VirtualizationTest, LatencyFactorsMatchTable7) {
  // CPU path within noise.
  EXPECT_NEAR(VirtualizationModel::LatencyFactor(SocProcessor::kCpu,
                                                 Duration::MillisF(81.2)),
              0.995, 1e-9);
  // DSP marginally faster when containerized.
  EXPECT_NEAR(VirtualizationModel::LatencyFactor(SocProcessor::kDsp,
                                                 Duration::MillisF(11.0)),
              0.97, 1e-9);
  // GPU penalty grows with kernel duration: YOLO ~+10%.
  const double yolo_factor = VirtualizationModel::LatencyFactor(
      SocProcessor::kGpu, Duration::MillisF(620.6));
  EXPECT_NEAR(yolo_factor, 1.10, 0.01);
  const double r50_factor = VirtualizationModel::LatencyFactor(
      SocProcessor::kGpu, Duration::MillisF(32.5));
  EXPECT_LT(r50_factor, yolo_factor);
}

TEST(VirtualizationTest, AdjustLatencyIdentityForPhysical) {
  const Duration base = Duration::MillisF(100.0);
  EXPECT_EQ(VirtualizationModel::AdjustLatency(SocExecutionMode::kPhysical,
                                               SocProcessor::kGpu, base),
            base);
  EXPECT_GT(VirtualizationModel::AdjustLatency(SocExecutionMode::kVirtualized,
                                               SocProcessor::kGpu, base),
            base);
}

TEST(VirtualizationTest, MemoryAndGpuCaps) {
  EXPECT_EQ(VirtualizationModel::MemoryOverheadFraction(
                SocExecutionMode::kPhysical), 0.0);
  EXPECT_NEAR(VirtualizationModel::MemoryOverheadFraction(
                  SocExecutionMode::kVirtualized), 0.054, 1e-9);
  EXPECT_GT(VirtualizationModel::GpuUtilizationCap(SocExecutionMode::kPhysical),
            VirtualizationModel::GpuUtilizationCap(
                SocExecutionMode::kVirtualized));
}

TEST(FaultInjectorTest, InjectsFailuresOverHorizon) {
  Simulator sim(11);
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(30)).ok());
  FaultConfig config;
  config.mtbf_per_soc = Duration::Hours(24 * 30);  // Aggressive for a test.
  config.repair_time = Duration::Zero();           // No repair.
  FaultInjector injector(&sim, &cluster, config);
  int callbacks = 0;
  injector.set_on_failure([&](int soc_index) {
    ++callbacks;
    EXPECT_GE(soc_index, 0);
    EXPECT_LT(soc_index, 60);
  });
  injector.Start(Duration::Hours(24 * 60));
  sim.Run();
  EXPECT_GT(injector.failures_injected(), 0);
  EXPECT_EQ(injector.failures_injected(), callbacks);
  EXPECT_EQ(cluster.NumFailed(), injector.failures_injected());
}

TEST(FaultInjectorTest, RepairRestoresSocs) {
  Simulator sim(13);
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(30)).ok());
  FaultConfig config;
  config.mtbf_per_soc = Duration::Hours(24 * 30);
  config.repair_time = Duration::Hours(6);
  FaultInjector injector(&sim, &cluster, config);
  injector.Start(Duration::Hours(24 * 30));
  sim.Run();
  EXPECT_GT(injector.failures_injected(), 0);
  EXPECT_GT(injector.repairs_completed(), 0);
  // All failures within the horizon eventually repair (repaired SoCs land
  // in the off state awaiting re-admission).
  EXPECT_EQ(cluster.NumFailed(),
            injector.failures_injected() - injector.repairs_completed());
}

TEST(FaultInjectorTest, NoFailuresBeyondHorizon) {
  Simulator sim(17);
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  FaultConfig config;
  config.mtbf_per_soc = Duration::Hours(24 * 365 * 100);  // Effectively never.
  FaultInjector injector(&sim, &cluster, config);
  injector.Start(Duration::Hours(1));
  sim.Run();
  EXPECT_EQ(injector.failures_injected(), 0);
}

}  // namespace
}  // namespace soccluster
