// The shared checks of the flagship builders (src/core/flagships.h): the
// brownout ladder's LIFO order check, the storm's request class mix, and
// the audit-size ride-out day exercising every client-side path.

#include "src/core/flagships.h"

#include <vector>

#include <gtest/gtest.h>

#include "src/core/det_scenarios.h"

namespace soccluster {
namespace {

using LadderEvent = BrownoutGovernor::LadderEvent;

LadderEvent Engage(int rung, int level) {
  return LadderEvent{SimTime::Zero(), rung, level, /*engage=*/true};
}

LadderEvent Release(int rung, int level) {
  return LadderEvent{SimTime::Zero(), rung, level, /*engage=*/false};
}

TEST(LadderOrderOkTest, AcceptsEmptyHistory) {
  EXPECT_TRUE(LadderOrderOk({}));
}

TEST(LadderOrderOkTest, AcceptsLifoEngageAndRelease) {
  // Deepening forward through the rungs (and twice on one rung), then
  // walking back in exact reverse order, twice over.
  const std::vector<LadderEvent> events = {
      Engage(0, 1),  Engage(2, 1),  Engage(2, 2),  Release(2, 2),
      Engage(3, 1),  Release(3, 1), Release(2, 1), Release(0, 1),
      Engage(1, 1),  Release(1, 1),
  };
  EXPECT_TRUE(LadderOrderOk(events));
}

TEST(LadderOrderOkTest, RejectsReleaseOfAnEngagementBelowTheTop) {
  EXPECT_FALSE(LadderOrderOk(
      {Engage(0, 1), Engage(1, 1), Release(0, 1), Release(1, 1)}));
  // The top rung, but not its most recent level.
  EXPECT_FALSE(LadderOrderOk({Engage(1, 1), Engage(1, 2), Release(1, 1)}));
}

TEST(LadderOrderOkTest, RejectsEngagementBelowTheTopRung) {
  EXPECT_FALSE(LadderOrderOk({Engage(2, 1), Engage(1, 1)}));
}

TEST(LadderOrderOkTest, RejectsReleaseOnAnEmptyStack) {
  EXPECT_FALSE(LadderOrderOk({Release(0, 1)}));
  EXPECT_FALSE(LadderOrderOk({Engage(0, 1), Release(0, 1), Release(0, 1)}));
}

TEST(MixedPriorityTest, TwentyFiftyThirtyOverEveryTenRequests) {
  int counts[kNumPriorities] = {};
  for (int64_t n = 0; n < 1000; ++n) {
    ++counts[static_cast<int>(MixedPriority(n))];
  }
  EXPECT_EQ(counts[static_cast<int>(Priority::kCritical)], 200);
  EXPECT_EQ(counts[static_cast<int>(Priority::kStandard)], 500);
  EXPECT_EQ(counts[static_cast<int>(Priority::kBestEffort)], 300);
}

TEST(RideoutDayTest, AuditSizeDayExercisesEveryClientPath) {
  // The det_sessions_day scenario certifies this day's order independence;
  // that certificate means something only if the day actually reaches
  // the paths it is meant to audit.
  const RideoutDayParams params = DetSessionsDayParams();
  Simulator sim(params.seed);
  RideoutDay day(&sim, params);
  ASSERT_TRUE(sim.RunFor(day.horizon() + Duration::Minutes(2)).ok());
  const SessionTier& tier = *day.tier;
  EXPECT_GT(tier.timeouts(), 0);
  EXPECT_GT(tier.retries(), 0);
  EXPECT_GT(tier.retries_denied(), 0);
  EXPECT_GT(tier.give_ups(), 0);
  EXPECT_GT(tier.wasted(), 0);
  int failed_serving_socs = 0;
  for (int i = 0; i < params.socs; ++i) {
    failed_serving_socs += day.cluster->soc(i).fail_count() > 0 ? 1 : 0;
  }
  EXPECT_GE(failed_serving_socs, 1);
}

}  // namespace
}  // namespace soccluster
