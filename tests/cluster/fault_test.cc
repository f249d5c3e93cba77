// Fault-taxonomy tests: transient/permanent splits, PCB-correlated
// failures, uplink flaps, thermal trips, planted gray faults, and the
// injector's guard rails.

#include "src/cluster/fault.h"

#include "gtest/gtest.h"
#include "src/cluster/cluster.h"
#include "src/hw/specs.h"

namespace soccluster {
namespace {

class FaultTaxonomyTest : public ::testing::Test {
 protected:
  void BootAll() {
    cluster_.PowerOnAll(nullptr);
    ASSERT_TRUE(sim_.RunFor(Duration::Seconds(30)).ok());
  }

  Simulator sim_{23};
  SocCluster cluster_{&sim_, DefaultChassisSpec(), Snapdragon865Spec()};
};

TEST_F(FaultTaxonomyTest, StartTwiceDies) {
  BootAll();
  FaultInjector injector(&sim_, &cluster_, FaultConfig{});
  injector.Start(Duration::Hours(1));
  EXPECT_TRUE(injector.started());
  EXPECT_DEATH(injector.Start(Duration::Hours(1)), "twice");
}

TEST_F(FaultTaxonomyTest, PoweredOffSocsDoNotFail) {
  // Nobody is powered on: MTBF is under-load, so no failure may land.
  FaultConfig config;
  config.mtbf_per_soc = Duration::Hours(2);  // Aggressive.
  config.repair_time = Duration::Zero();
  FaultInjector injector(&sim_, &cluster_, config);
  injector.Start(Duration::Hours(24 * 7));
  sim_.Run();
  EXPECT_EQ(injector.failures_injected(), 0);
  EXPECT_TRUE(injector.history().empty());
  EXPECT_EQ(cluster_.NumFailed(), 0);
}

TEST_F(FaultTaxonomyTest, TransientFaultsAutoRecover) {
  BootAll();
  FaultConfig config;
  config.mtbf_per_soc = Duration::Hours(24 * 10);
  config.transient_fraction = 1.0;  // Every fault is a watchdog reboot.
  config.transient_outage = Duration::Minutes(2);
  FaultInjector injector(&sim_, &cluster_, config);
  injector.Start(Duration::Hours(24 * 30));
  sim_.Run();
  ASSERT_GT(injector.failures_injected(), 0);
  EXPECT_EQ(injector.faults_of(FaultKind::kSocTransient),
            injector.failures_injected());
  EXPECT_EQ(injector.faults_of(FaultKind::kSocPermanent), 0);
  // Every transient recovered (to the powered-off state).
  EXPECT_EQ(injector.repairs_completed(), injector.failures_injected());
  EXPECT_EQ(cluster_.NumFailed(), 0);
}

TEST_F(FaultTaxonomyTest, PcbFailureTakesDownWholeBoard) {
  BootAll();
  FaultConfig config;
  config.mtbf_per_soc = Duration::Hours(24 * 365 * 100);  // SoC chain off.
  config.mtbf_per_pcb = Duration::Hours(24 * 20);
  config.pcb_repair_time = Duration::Zero();  // Boards stay down.
  FaultInjector injector(&sim_, &cluster_, config);
  std::vector<int> victims;
  injector.set_on_failure([&](int soc_index) { victims.push_back(soc_index); });
  injector.Start(Duration::Hours(24 * 60));
  sim_.Run();
  ASSERT_GT(injector.pcb_failures(), 0);
  // Each correlated event takes exactly the board's five SoCs at once.
  EXPECT_EQ(injector.failures_injected(), 5 * injector.pcb_failures());
  EXPECT_EQ(static_cast<int64_t>(victims.size()),
            injector.failures_injected());
  // The first five victims share one PCB.
  ASSERT_GE(victims.size(), 5u);
  const int pcb = cluster_.PcbOf(victims[0]);
  for (int i = 1; i < 5; ++i) {
    EXPECT_EQ(cluster_.PcbOf(victims[static_cast<size_t>(i)]), pcb);
  }
}

TEST_F(FaultTaxonomyTest, UplinkFlapsRestoreLinks) {
  BootAll();
  FaultConfig config;
  config.mtbf_per_soc = Duration::Hours(24 * 365 * 100);
  config.uplink_flap_mtbf = Duration::Hours(24 * 5);
  config.uplink_flap_duration = Duration::Seconds(30);
  FaultInjector injector(&sim_, &cluster_, config);
  injector.Start(Duration::Hours(24 * 60));
  sim_.Run();
  EXPECT_GT(injector.uplink_flaps(), 0);
  EXPECT_EQ(injector.failures_injected(), 0);  // Flaps fail no SoC.
  // Every flap is bounded: all uplinks are back up at the end.
  Network& net = cluster_.network();
  EXPECT_TRUE(net.LinkIsUp(cluster_.esb_uplink_out()));
  EXPECT_TRUE(net.LinkIsUp(cluster_.esb_uplink_in()));
  for (int p = 0; p < cluster_.chassis().num_pcbs; ++p) {
    EXPECT_TRUE(net.LinkIsUp(cluster_.pcb_uplink_out(p)));
  }
}

TEST_F(FaultTaxonomyTest, ThermalTripsThrottleAndRestore) {
  BootAll();
  FaultConfig config;
  config.mtbf_per_soc = Duration::Hours(24 * 365 * 100);
  config.thermal_mtbf = Duration::Hours(24 * 2);
  config.thermal_duration = Duration::Minutes(10);
  FaultInjector injector(&sim_, &cluster_, config);
  injector.Start(Duration::Hours(24 * 10));
  // Catch one trip in flight: the SoC runs at the thermal factor.
  bool seen_throttled = false;
  PeriodicTask watch(
      &sim_, Duration::Minutes(1),
      [&] {
        for (int i = 0; i < cluster_.num_socs(); ++i) {
          if (cluster_.soc(i).throttle_factor() ==
              FaultInjector::kThermalThrottleFactor) {
            seen_throttled = true;
          }
        }
      },
      "test.watch");
  watch.Start();
  ASSERT_TRUE(sim_.RunFor(Duration::Hours(24 * 10)).ok());
  watch.Stop();
  sim_.Run();
  EXPECT_GT(injector.thermal_trips(), 0);
  EXPECT_TRUE(seen_throttled);
  EXPECT_EQ(injector.failures_injected(), 0);  // Throttling is not failure.
  // Excursions are bounded: everyone is back at full speed.
  for (int i = 0; i < cluster_.num_socs(); ++i) {
    EXPECT_DOUBLE_EQ(cluster_.soc(i).throttle_factor(), 1.0);
  }
}

TEST_F(FaultTaxonomyTest, PublishesRegistryCounters) {
  BootAll();
  FaultConfig config;
  config.mtbf_per_soc = Duration::Hours(24 * 10);
  config.transient_fraction = 0.5;
  config.transient_outage = Duration::Minutes(2);
  config.repair_time = Duration::Hours(6);
  FaultInjector injector(&sim_, &cluster_, config);
  injector.Start(Duration::Hours(24 * 60));
  sim_.Run();
  ASSERT_GT(injector.failures_injected(), 0);
  MetricRegistry& metrics = sim_.metrics();
  EXPECT_EQ(metrics.GetCounter("fault.soc_failures")->value(),
            injector.failures_injected());
  EXPECT_EQ(metrics.GetCounter("fault.repairs")->value(),
            injector.repairs_completed());
  const int64_t by_kind =
      metrics.GetCounter("fault.injected", {{"kind", "soc_transient"}})
          ->value() +
      metrics.GetCounter("fault.injected", {{"kind", "soc_permanent"}})
          ->value();
  EXPECT_EQ(by_kind, injector.failures_injected());
}

TEST_F(FaultTaxonomyTest, HistoryRecordsEveryEventInOrder) {
  BootAll();
  FaultConfig config;
  config.mtbf_per_soc = Duration::Hours(24 * 10);
  config.thermal_mtbf = Duration::Hours(24 * 5);
  FaultInjector injector(&sim_, &cluster_, config);
  injector.Start(Duration::Hours(24 * 30));
  sim_.Run();
  const auto& history = injector.history();
  ASSERT_FALSE(history.empty());
  int64_t total = 0;
  for (int k = 0; k < kNumFaultKinds; ++k) {
    total += injector.faults_of(static_cast<FaultKind>(k));
  }
  EXPECT_EQ(static_cast<int64_t>(history.size()), total);
  for (size_t i = 1; i < history.size(); ++i) {
    EXPECT_GE(history[i].at.nanos(), history[i - 1].at.nanos());
  }
}

TEST_F(FaultTaxonomyTest, SlowSocExcursionsThrottleDeepAndRestore) {
  BootAll();
  FaultInjector injector(&sim_, &cluster_, FaultConfig{});
  // Overlapping hour-long excursions across the fleet, each planted on a
  // SoC that is not already throttled.
  for (int i = 0; i < cluster_.num_socs(); i += 3) {
    injector.PlantSlowSoc(i, sim_.Now() + Duration::Minutes(i),
                          Duration::Hours(1), 0.3);
  }
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(30)).ok());
  EXPECT_DOUBLE_EQ(cluster_.soc(0).throttle_factor(), 0.3);
  sim_.Run();
  EXPECT_EQ(injector.faults_of(FaultKind::kSlowSoc), 20);
  EXPECT_EQ(injector.gray_faults(), injector.faults_of(FaultKind::kSlowSoc));
  EXPECT_EQ(injector.failures_injected(), 0);  // Fail-slow, not fail-stop.
  for (int i = 0; i < cluster_.num_socs(); ++i) {
    EXPECT_DOUBLE_EQ(cluster_.soc(i).throttle_factor(), 1.0);
    EXPECT_TRUE(cluster_.soc(i).IsUsable());
  }
}

TEST_F(FaultTaxonomyTest, PlantSlowSocThrottlesForExactWindow) {
  BootAll();
  FaultInjector injector(&sim_, &cluster_, FaultConfig{});
  injector.PlantSlowSoc(4, sim_.Now() + Duration::Minutes(1),
                        Duration::Minutes(5), 0.25);
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(2)).ok());
  EXPECT_DOUBLE_EQ(cluster_.soc(4).throttle_factor(), 0.25);
  EXPECT_TRUE(cluster_.soc(4).IsUsable());  // Still beating.
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(5)).ok());
  EXPECT_DOUBLE_EQ(cluster_.soc(4).throttle_factor(), 1.0);
  EXPECT_EQ(injector.faults_of(FaultKind::kSlowSoc), 1);
}

TEST_F(FaultTaxonomyTest, PlantLinkBrownoutDegradesBothDirectionsAndRestores) {
  BootAll();
  FaultInjector injector(&sim_, &cluster_, FaultConfig{});
  injector.PlantLinkBrownout(0, sim_.Now() + Duration::Seconds(10),
                             Duration::Minutes(2), 0.25);
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(1)).ok());
  Network& net = cluster_.network();
  const LinkId out = cluster_.pcb_uplink_out(0);
  EXPECT_NEAR(net.LinkCapacityFactor(out), 0.25, 1e-12);
  EXPECT_NEAR(net.LinkCapacityFactor(out + 1), 0.25, 1e-12);
  EXPECT_TRUE(net.LinkIsUp(out));  // Browned out, not down.
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(2)).ok());
  EXPECT_NEAR(net.LinkCapacityFactor(out), 1.0, 1e-12);
  EXPECT_NEAR(net.LinkCapacityFactor(out + 1), 1.0, 1e-12);
  EXPECT_EQ(injector.faults_of(FaultKind::kLinkBrownout), 1);
}

TEST_F(FaultTaxonomyTest, LinkSlotsCoverPcbUplinksThenEsbOnly) {
  BootAll();
  FaultInjector injector(&sim_, &cluster_, FaultConfig{});
  const int num_pcbs = cluster_.chassis().num_pcbs;
  injector.PlantLinkBrownout(num_pcbs, sim_.Now(), Duration::Minutes(1), 0.5);
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(1)).ok());
  EXPECT_NEAR(cluster_.network().LinkCapacityFactor(cluster_.esb_uplink_out()),
              0.5, 1e-12);
  // A slot past the ESB is a caller bug, not another name for the ESB.
  EXPECT_DEATH(injector.PlantLinkBrownout(num_pcbs + 7, sim_.Now(),
                                          Duration::Minutes(1), 0.25),
               "uplink slot");
  EXPECT_DEATH(injector.PlantLinkBrownout(-1, sim_.Now(), Duration::Minutes(1),
                                          0.25),
               "uplink slot");
}

TEST_F(FaultTaxonomyTest, PlantFlakyHeartbeatSetsLossAndExpires) {
  BootAll();
  FaultInjector injector(&sim_, &cluster_, FaultConfig{});
  injector.PlantFlakyHeartbeat(7, sim_.Now() + Duration::Seconds(5),
                               Duration::Minutes(1), 0.5);
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(30)).ok());
  EXPECT_DOUBLE_EQ(cluster_.soc(7).heartbeat_loss_prob(), 0.5);
  EXPECT_TRUE(cluster_.soc(7).IsUsable());  // Data path unaffected.
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(1)).ok());
  EXPECT_DOUBLE_EQ(cluster_.soc(7).heartbeat_loss_prob(), 0.0);
  EXPECT_EQ(injector.faults_of(FaultKind::kFlakyHeartbeat), 1);
}

TEST_F(FaultTaxonomyTest, PlantZombieFailsRequestsNotHeartbeats) {
  BootAll();
  FaultInjector injector(&sim_, &cluster_, FaultConfig{});
  injector.PlantZombie(9, sim_.Now() + Duration::Seconds(5),
                       Duration::Minutes(1));
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(30)).ok());
  EXPECT_TRUE(cluster_.soc(9).zombie());
  EXPECT_TRUE(cluster_.soc(9).IsUsable());  // The gray part: beats fine.
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(1)).ok());
  EXPECT_FALSE(cluster_.soc(9).zombie());
  EXPECT_EQ(injector.faults_of(FaultKind::kZombie), 1);
}

TEST_F(FaultTaxonomyTest, PowerCycleClearsGrayState) {
  BootAll();
  FaultInjector injector(&sim_, &cluster_, FaultConfig{});
  injector.PlantZombie(3, sim_.Now(), Duration::Zero());  // Until power-cycle.
  injector.PlantFlakyHeartbeat(3, sim_.Now(), Duration::Zero(), 0.8);
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(1)).ok());
  ASSERT_TRUE(cluster_.soc(3).zombie());
  cluster_.soc(3).Fail();
  EXPECT_FALSE(cluster_.soc(3).zombie());
  EXPECT_DOUBLE_EQ(cluster_.soc(3).heartbeat_loss_prob(), 0.0);
  EXPECT_DOUBLE_EQ(cluster_.soc(3).throttle_factor(), 1.0);
}

TEST_F(FaultTaxonomyTest, PlantedGrayFaultsOnlyLandOnUsableSocs) {
  // SoC 1 is up; SoC 2 was never powered and SoC 3 failed. Plants on the
  // last two land nothing, now or when their time comes.
  ASSERT_TRUE(cluster_.soc(1).PowerOn(Duration::Seconds(20), nullptr).ok());
  ASSERT_TRUE(cluster_.soc(3).PowerOn(Duration::Seconds(20), nullptr).ok());
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(30)).ok());
  cluster_.soc(3).Fail();
  FaultInjector injector(&sim_, &cluster_, FaultConfig{});
  for (int soc = 1; soc <= 3; ++soc) {
    injector.PlantSlowSoc(soc, sim_.Now(), Duration::Hours(1), 0.3);
    injector.PlantFlakyHeartbeat(soc, sim_.Now() + Duration::Minutes(1),
                                 Duration::Hours(1), 0.5);
    injector.PlantZombie(soc, sim_.Now() + Duration::Minutes(2),
                         Duration::Hours(1));
  }
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(5)).ok());
  EXPECT_EQ(injector.faults_of(FaultKind::kSlowSoc), 1);
  EXPECT_EQ(injector.faults_of(FaultKind::kFlakyHeartbeat), 1);
  EXPECT_EQ(injector.faults_of(FaultKind::kZombie), 1);
  for (const FaultEvent& event : injector.history()) {
    EXPECT_EQ(event.index, 1) << FaultKindName(event.kind);
  }
  for (int soc : {2, 3}) {
    EXPECT_DOUBLE_EQ(cluster_.soc(soc).throttle_factor(), 1.0);
    EXPECT_DOUBLE_EQ(cluster_.soc(soc).heartbeat_loss_prob(), 0.0);
    EXPECT_FALSE(cluster_.soc(soc).zombie());
  }
}

}  // namespace
}  // namespace soccluster
