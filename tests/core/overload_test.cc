#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/check.h"
#include "src/core/overload.h"

namespace soccluster {
namespace {

class OverloadTest : public ::testing::Test {
 protected:
  OverloadTest()
      : cluster_(&sim_, DefaultChassisSpec(), Snapdragon865Spec()),
        bmc_(&sim_, &cluster_, BmcConfig{}),
        fleet_(&sim_, &cluster_, DlDevice::kSocCpu, DnnModel::kResNet50,
               Precision::kFp32),
        live_(&sim_, &cluster_, PlacementPolicy::kSpread),
        serverless_(&sim_, &cluster_, ServerlessConfig{}),
        gaming_(&sim_, &cluster_, GamingWorkloadConfig{}),
        orchestrator_(&sim_, &cluster_, PlacementPolicy::kSpread) {
    cluster_.PowerOnAll(nullptr);
    const Status status = sim_.RunFor(Duration::Seconds(26));
    SOC_CHECK(status.ok());
    bmc_.StartSampling();
  }

  ClusterOverloadConfig CapConfig() {
    ClusterOverloadConfig config;
    config.wall_cap = Power::Watts(300.0);
    return config;
  }

  Simulator sim_{151};
  SocCluster cluster_;
  BmcModel bmc_;
  SocServingFleet fleet_;
  LiveTranscodingService live_;
  ServerlessPlatform serverless_;
  GamingWorkload gaming_;
  Orchestrator orchestrator_;
};

// The engagement sequence must walk the rungs in registration order, and
// every release must undo the most recent un-released engagement (exact
// LIFO — the reverse-order walk-back the ladder promises).
void CheckLadderOrder(const std::vector<BrownoutGovernor::LadderEvent>& events) {
  std::vector<std::pair<int, int>> engaged;  // (rung, level) stack.
  int last_rung = -1;
  for (const auto& event : events) {
    if (event.engage) {
      if (!engaged.empty()) {
        // Deepening only moves forward through the rung list (the governor
        // always engages the first non-maxed rung, so within one episode
        // rungs engage in order).
        EXPECT_GE(event.rung, engaged.back().first);
      }
      engaged.emplace_back(event.rung, event.level);
    } else {
      ASSERT_FALSE(engaged.empty());
      EXPECT_EQ(event.rung, engaged.back().first);
      EXPECT_EQ(event.level, engaged.back().second);
      engaged.pop_back();
    }
    last_rung = event.rung;
  }
  (void)last_rung;
}

TEST_F(OverloadTest, LadderDegradesAllServicesBeforeEvicting) {
  ASSERT_TRUE(orchestrator_
                  .RegisterWorkload("batch", ReplicaDemand{0.05, 0.1},
                                    Priority::kBestEffort)
                  .ok());
  ASSERT_TRUE(orchestrator_.ScaleTo("batch", 5).ok());

  ClusterOverloadManager manager(&sim_, &cluster_, &bmc_, CapConfig());
  manager.AttachServing(&fleet_);
  manager.AttachLive(&live_);
  manager.AttachServerless(&serverless_);
  manager.AttachGaming(&gaming_);
  manager.AttachOrchestrator(&orchestrator_);
  fleet_.SetActiveCount(60);
  manager.Start();

  for (int i = 0; i < 100000; ++i) {
    fleet_.Submit();
  }
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(60)).ok());

  // Deep brownout: every cheaper rung engaged before SoC eviction.
  EXPECT_TRUE(manager.IsBrownedOut());
  EXPECT_EQ(fleet_.admission().admit_floor(), Priority::kStandard);
  EXPECT_EQ(live_.brownout_rung(), kNumBitrateRungs - 1);
  EXPECT_TRUE(serverless_.defer_cold_starts());
  EXPECT_GE(gaming_.session_cap(), 0);
  EXPECT_LT(fleet_.active_count(), 60);
  // Best-effort replicas were preempted and stay parked under the hold.
  EXPECT_EQ(orchestrator_.replicas_preempted(), 5);
  EXPECT_EQ(orchestrator_.replicas_pending(), 5);
  EXPECT_TRUE(orchestrator_.placement_hold());
  CheckLadderOrder(manager.governor().history());
}

TEST_F(OverloadTest, LadderReleasesInReverseAfterPressureDrops) {
  ASSERT_TRUE(orchestrator_
                  .RegisterWorkload("batch", ReplicaDemand{0.05, 0.1},
                                    Priority::kBestEffort)
                  .ok());
  ASSERT_TRUE(orchestrator_.ScaleTo("batch", 5).ok());

  ClusterOverloadManager manager(&sim_, &cluster_, &bmc_, CapConfig());
  manager.AttachServing(&fleet_);
  manager.AttachLive(&live_);
  manager.AttachServerless(&serverless_);
  manager.AttachGaming(&gaming_);
  manager.AttachOrchestrator(&orchestrator_);
  fleet_.SetActiveCount(60);
  manager.Start();

  // Finite surge: the backlog drains, draw falls, the ladder unwinds.
  for (int i = 0; i < 20000; ++i) {
    fleet_.Submit();
  }
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(30)).ok());
  ASSERT_TRUE(manager.IsBrownedOut());
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(10)).ok());

  EXPECT_FALSE(manager.IsBrownedOut());
  EXPECT_EQ(fleet_.queue_length(), 0);
  // Every degradation undone, in reverse order.
  EXPECT_EQ(fleet_.admission().admit_floor(), Priority::kBestEffort);
  EXPECT_EQ(live_.brownout_rung(), 0);
  EXPECT_FALSE(serverless_.defer_cold_starts());
  EXPECT_EQ(gaming_.session_cap(), -1);
  EXPECT_EQ(fleet_.active_count(), 60);
  EXPECT_FALSE(orchestrator_.placement_hold());
  // Preempted best-effort replicas re-placed once the hold lifted.
  EXPECT_EQ(orchestrator_.replicas_pending(), 0);
  const auto status = orchestrator_.GetStatus("batch");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->running_replicas, 5);
  CheckLadderOrder(manager.governor().history());
  EXPECT_EQ(manager.governor().engagements(), manager.governor().releases());
}

// The governor has no cap to fall back on: a manager without a wall cap
// fails at construction, not silently unbounded at run time.
TEST(OverloadDeathTest, ZeroWallCapIsRejectedAtConstruction) {
  Simulator sim(143);
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  EXPECT_DEATH(ClusterOverloadManager(&sim, &cluster, nullptr,
                                      ClusterOverloadConfig{}),
               "brownout needs a wall cap");
  EXPECT_DEATH(ClusterOverloadManager(
                   &sim, &cluster, nullptr,
                   ClusterOverloadConfig{.wall_cap = Power::Watts(-1.0)}),
               "brownout needs a wall cap");
}

}  // namespace
}  // namespace soccluster
