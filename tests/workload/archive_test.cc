#include "src/base/check.h"
#include "src/workload/video/archive.h"
#include "src/workload/video/live.h"

#include <gtest/gtest.h>

#include <vector>

namespace soccluster {
namespace {

class ArchiveServiceTest : public ::testing::Test {
 protected:
  ArchiveServiceTest()
      : cluster_(&sim_, DefaultChassisSpec(), Snapdragon865Spec()) {
    cluster_.PowerOnAll(nullptr);
    const Status status = sim_.RunFor(Duration::Seconds(26));
    SOC_CHECK(status.ok());
  }

  Simulator sim_{151};
  SocCluster cluster_;
};

TEST_F(ArchiveServiceTest, SingleJobRunsAtCalibratedRate) {
  ArchiveTranscodingService service(&sim_, &cluster_,
                                    ArchiveScheduling::kFifo, 0);
  ArchiveJobReport report;
  bool done = false;
  // A 60 s V1 clip: 1800 frames at 15.6 fps ~ 115.4 s of processing.
  auto job = service.SubmitJob(VbenchVideo::kV1Holi, Duration::Seconds(60),
                               [&](const ArchiveJobReport& r) {
                                 report = r;
                                 done = true;
                               });
  ASSERT_TRUE(job.ok());
  sim_.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(report.frames, 1800);
  EXPECT_NEAR(report.processing.ToSeconds(), 1800.0 / 15.6, 0.5);
  EXPECT_EQ(report.queue_wait.nanos(), 0);
}

TEST_F(ArchiveServiceTest, RejectsEmptyClip) {
  ArchiveTranscodingService service(&sim_, &cluster_,
                                    ArchiveScheduling::kFifo, 0);
  EXPECT_EQ(service.SubmitJob(VbenchVideo::kV1Holi, Duration::Zero(),
                              nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ArchiveServiceTest, ConcurrencyLimitQueuesJobs) {
  ArchiveTranscodingService service(&sim_, &cluster_,
                                    ArchiveScheduling::kFifo,
                                    /*max_concurrent_socs=*/2);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(service.SubmitJob(VbenchVideo::kV2Desktop,
                                  Duration::Seconds(30), nullptr).ok());
  }
  EXPECT_EQ(service.running_jobs(), 2);
  EXPECT_EQ(service.queued_jobs(), 3);
  sim_.Run();
  EXPECT_EQ(service.completed_jobs(), 5);
  EXPECT_EQ(service.running_jobs(), 0);
}

TEST_F(ArchiveServiceTest, JobsOccupyWholeSocs) {
  ArchiveTranscodingService service(&sim_, &cluster_,
                                    ArchiveScheduling::kFifo, 0);
  ASSERT_TRUE(service.SubmitJob(VbenchVideo::kV5Hall, Duration::Seconds(10),
                                nullptr).ok());
  int saturated = 0;
  for (int i = 0; i < 60; ++i) {
    saturated += cluster_.soc(i).cpu_util() == 1.0 ? 1 : 0;
  }
  EXPECT_EQ(saturated, 1);
  sim_.Run();
  for (int i = 0; i < 60; ++i) {
    EXPECT_EQ(cluster_.soc(i).cpu_util(), 0.0);
  }
}

TEST_F(ArchiveServiceTest, SjfBeatsFifoOnMeanTurnaround) {
  auto run = [](ArchiveScheduling scheduling) {
    Simulator sim(153);
    SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
    cluster.PowerOnAll(nullptr);
    const Status boot = sim.RunFor(Duration::Seconds(26));
    SOC_CHECK(boot.ok());
    ArchiveTranscodingService service(&sim, &cluster, scheduling,
                                      /*max_concurrent_socs=*/1);
    // A first job occupies the single slot; the long job and a burst of
    // short ones then queue behind it, so the policy decides the order.
    SOC_CHECK(service.SubmitJob(VbenchVideo::kV2Desktop,
                                Duration::Seconds(30), nullptr).ok());
    SOC_CHECK(service.SubmitJob(VbenchVideo::kV6Chicken,
                                Duration::Minutes(5), nullptr).ok());
    for (int i = 0; i < 6; ++i) {
      SOC_CHECK(service.SubmitJob(VbenchVideo::kV2Desktop,
                                  Duration::Seconds(30), nullptr).ok());
    }
    sim.Run();
    return service.turnaround_minutes().Mean();
  };
  const double fifo = run(ArchiveScheduling::kFifo);
  const double sjf = run(ArchiveScheduling::kShortestJobFirst);
  EXPECT_LT(sjf, fifo * 0.8);
}

TEST_F(ArchiveServiceTest, SharesClusterWithOtherWork) {
  // Occupy 59 SoCs with other work; archive must confine itself to the
  // remaining one.
  for (int i = 0; i < 59; ++i) {
    ASSERT_TRUE(cluster_.soc(i).SetCpuUtil(0.5).ok());
  }
  ArchiveTranscodingService service(&sim_, &cluster_,
                                    ArchiveScheduling::kFifo, 0);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.SubmitJob(VbenchVideo::kV4Presentation,
                                  Duration::Seconds(10), nullptr).ok());
  }
  EXPECT_EQ(service.running_jobs(), 1);
  EXPECT_EQ(service.queued_jobs(), 2);
  sim_.Run();
  EXPECT_EQ(service.completed_jobs(), 3);
}

// A hardware-codec stream leaves SoC 0's CPU load at zero but charges its
// codec daemon against CPU headroom, so a whole-CPU job no longer fits
// there. The job must go to the next idle SoC (a private pick loop that
// looked only at cpu_util chose SoC 0 and aborted on the CPU charge).
TEST_F(ArchiveServiceTest, SkipsSocHostingCodecSessions) {
  LiveTranscodingService live(&sim_, &cluster_, PlacementPolicy::kSpread);
  ASSERT_TRUE(
      live.StartStream(VbenchVideo::kV1Holi, TranscodeBackend::kSocHwCodec)
          .ok());
  ASSERT_EQ(cluster_.soc(0).codec_sessions(), 1);
  ASSERT_EQ(cluster_.soc(0).cpu_util(), 0.0);
  ArchiveTranscodingService service(&sim_, &cluster_,
                                    ArchiveScheduling::kFifo, 0);
  ASSERT_TRUE(service.SubmitJob(VbenchVideo::kV2Desktop,
                                Duration::Seconds(10), nullptr).ok());
  EXPECT_EQ(service.running_jobs(), 1);
  EXPECT_EQ(cluster_.soc(0).cpu_util(), 0.0);
  EXPECT_EQ(cluster_.soc(1).cpu_util(), 1.0);
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(10)).ok());
  EXPECT_EQ(service.completed_jobs(), 1);
  EXPECT_EQ(cluster_.soc(1).cpu_util(), 0.0);
  EXPECT_EQ(cluster_.soc(0).codec_sessions(), 1);
}

// A quarantined SoC accepts no new placements anywhere in the stack.
TEST_F(ArchiveServiceTest, SkipsQuarantinedSoc) {
  cluster_.soc(0).SetQuarantined(true);
  ArchiveTranscodingService service(&sim_, &cluster_,
                                    ArchiveScheduling::kFifo, 0);
  ASSERT_TRUE(service.SubmitJob(VbenchVideo::kV2Desktop,
                                Duration::Seconds(10), nullptr).ok());
  EXPECT_EQ(cluster_.soc(0).cpu_util(), 0.0);
  EXPECT_EQ(cluster_.soc(1).cpu_util(), 1.0);
  sim_.Run();
  EXPECT_EQ(service.completed_jobs(), 1);
}

// A fail/repair/reboot cycle wipes the running job's CPU charge but not
// its hold on the SoC: no second archive job lands there, and the job's
// end releases no CPU that other work took on the rebooted SoC.
TEST_F(ArchiveServiceTest, FailRepairKeepsSocBusyAndOtherLoadIntact) {
  ArchiveTranscodingService service(&sim_, &cluster_,
                                    ArchiveScheduling::kFifo, 0);
  // ~115 s of processing: longer than the fail/reboot cycle below.
  ASSERT_TRUE(service.SubmitJob(VbenchVideo::kV1Holi, Duration::Seconds(60),
                                nullptr).ok());
  ASSERT_EQ(cluster_.soc(0).cpu_util(), 1.0);
  SocModel& soc = cluster_.soc(0);
  soc.Fail();
  soc.Repair();
  ASSERT_TRUE(soc.PowerOn(cluster_.chassis().soc_boot, nullptr).ok());
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(30)).ok());
  ASSERT_TRUE(soc.IsUsable());
  ASSERT_EQ(service.running_jobs(), 1);

  ASSERT_TRUE(service.SubmitJob(VbenchVideo::kV2Desktop,
                                Duration::Seconds(10), nullptr).ok());
  EXPECT_EQ(soc.cpu_util(), 0.0);
  EXPECT_EQ(cluster_.soc(1).cpu_util(), 1.0);

  ASSERT_TRUE(soc.SetCpuUtil(0.5).ok());  // Other work on the rebooted SoC.
  sim_.Run();
  EXPECT_EQ(service.completed_jobs(), 2);
  EXPECT_EQ(soc.cpu_util(), 0.5);
  EXPECT_EQ(cluster_.soc(1).cpu_util(), 0.0);
}

}  // namespace
}  // namespace soccluster
