#include <gtest/gtest.h>

#include <algorithm>

#include "src/base/check.h"
#include "src/core/telemetry.h"
#include "src/trace/gaming_trace.h"
#include "src/trace/vm_distribution.h"

namespace soccluster {
namespace {

TEST(VmDistributionTest, FitFractionsMatchFigure1) {
  const SocFitLimits limits;
  VmDistribution azure(VmCloud::kAzure);
  VmDistribution ens(VmCloud::kAlibabaEns);
  // Fig. 1: ~66% of Azure VMs and ~36% of ENS VMs fit within the SoC.
  EXPECT_NEAR(azure.FitFraction(limits), 0.66, 1e-9);
  EXPECT_NEAR(ens.FitFraction(limits), 0.36, 1e-9);
}

TEST(VmDistributionTest, CdfMonotone) {
  VmDistribution azure(VmCloud::kAzure);
  double prev = 0.0;
  for (int cores : {1, 2, 4, 8, 16, 32, 64}) {
    const double cdf = azure.CoresCdf(cores);
    EXPECT_GE(cdf, prev);
    prev = cdf;
  }
  EXPECT_DOUBLE_EQ(azure.CoresCdf(64), 1.0);
  EXPECT_DOUBLE_EQ(azure.CoresCdf(0), 0.0);
}

TEST(VmDistributionTest, EnsSkewsLarger) {
  VmDistribution azure(VmCloud::kAzure);
  VmDistribution ens(VmCloud::kAlibabaEns);
  // Edge VMs are larger on every prefix of the cores CDF.
  for (int cores : {2, 4, 8}) {
    EXPECT_GT(azure.CoresCdf(cores), ens.CoresCdf(cores));
  }
}

TEST(VmDistributionTest, SamplingMatchesExactFractions) {
  VmDistribution azure(VmCloud::kAzure);
  Rng rng(51);
  const auto instances = azure.Sample(&rng, 50000);
  ASSERT_EQ(instances.size(), 50000u);
  const SocFitLimits limits;
  int fit = 0;
  for (const VmInstance& vm : instances) {
    if (vm.cores <= limits.cores && vm.memory_gb <= limits.memory_gb &&
        vm.storage_gb <= limits.storage_gb) {
      ++fit;
    }
  }
  EXPECT_NEAR(fit / 50000.0, 0.66, 0.01);
}

class GamingTest : public ::testing::Test {
 protected:
  GamingTest()
      : cluster_(&sim_, DefaultChassisSpec(), Snapdragon865Spec()) {
    cluster_.PowerOnAll(nullptr);
    const Status status = sim_.RunFor(Duration::Seconds(26));
    SOC_CHECK(status.ok());
  }

  Simulator sim_{53};
  SocCluster cluster_;
};

TEST_F(GamingTest, DiurnalRateShape) {
  GamingWorkload workload(&sim_, &cluster_, GamingWorkloadConfig{});
  // Peak at 21:00 (220 sessions/hour), trough near 09:00.
  const double peak = workload.ArrivalRate(
      SimTime::Zero() + Duration::Hours(21));
  const double trough = workload.ArrivalRate(
      SimTime::Zero() + Duration::Hours(9));
  EXPECT_NEAR(peak, 220.0, 1.0);
  EXPECT_GT(peak / trough, 10.0);
}

TEST_F(GamingTest, SessionsComeAndGo) {
  GamingWorkload workload(&sim_, &cluster_, GamingWorkloadConfig{});
  // Start mid-evening so arrivals flow immediately.
  ASSERT_TRUE(sim_.RunUntil(SimTime::Zero() + Duration::Hours(20)).ok());
  workload.Start(Duration::Hours(2));
  ASSERT_TRUE(sim_.RunFor(Duration::Hours(1)).ok());
  EXPECT_GT(workload.sessions_started(), 50);
  EXPECT_GT(workload.active_sessions(), 0);
  sim_.Run();
  EXPECT_EQ(workload.active_sessions(), 0);  // All sessions eventually end.
}

TEST_F(GamingTest, TrafficShowsLargePeakToTroughSwing) {
  GamingWorkload workload(&sim_, &cluster_, GamingWorkloadConfig{});
  ClusterTelemetry telemetry(&sim_, &cluster_, Duration::Minutes(5));
  // Start the workload at 06:00, let sessions ramp for two hours, then
  // capture 38 hours as in Figure 5.
  ASSERT_TRUE(sim_.RunUntil(SimTime::Zero() + Duration::Hours(6)).ok());
  workload.Start(Duration::Hours(42));
  ASSERT_TRUE(sim_.RunFor(Duration::Hours(2)).ok());
  telemetry.Start();
  ASSERT_TRUE(sim_.RunFor(Duration::Hours(38)).ok());
  telemetry.Stop();
  // Figure 5: up to ~25x disparity, utilization well below capacity.
  EXPECT_GT(telemetry.OutboundPeakToTrough(), 8.0);
  EXPECT_LT(telemetry.MeanOutboundUtilization(), 0.20);
  EXPECT_GT(telemetry.PeakOutboundGbps(), 0.3);
  EXPECT_LT(telemetry.PeakOutboundGbps(), 20.0);
}

TEST_F(GamingTest, RespectsPerSocSessionLimit) {
  // Three live SoCs hold six sessions; the evening peak (~220/hour, 28 min
  // median sessions) offers far more, so every slot fills.
  for (int i = 3; i < cluster_.num_socs(); ++i) {
    ASSERT_TRUE(cluster_.soc(i).PowerOff().ok());
  }
  GamingWorkload workload(&sim_, &cluster_, GamingWorkloadConfig{});
  ASSERT_TRUE(sim_.RunUntil(SimTime::Zero() + Duration::Hours(21)).ok());
  workload.Start(Duration::Minutes(30));
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(30)).ok());
  EXPECT_GT(workload.sessions_rejected(), 0);
  int fullest = 0;
  for (int i = 0; i < 3; ++i) {
    fullest = std::max(fullest, workload.SessionsOnSoc(i));
  }
  // Two sessions per SoC (§2.3), never more.
  EXPECT_EQ(fullest, 2);
  EXPECT_LE(workload.active_sessions(), 6);
}

}  // namespace
}  // namespace soccluster
