// Video workload tests: metadata (Table 3), transcode capacity/power
// calibration, rate-control and PSNR models (Figs 8-10), and the live
// service on the simulated cluster.

#include <gtest/gtest.h>

#include "src/base/check.h"
#include "src/cluster/cluster.h"
#include "src/workload/video/live.h"
#include "src/workload/video/quality.h"
#include "src/workload/video/transcode.h"
#include "src/workload/video/video.h"

namespace soccluster {
namespace {

std::vector<VbenchVideo> AllVideos() {
  return {VbenchVideo::kV1Holi,         VbenchVideo::kV2Desktop,
          VbenchVideo::kV3Game3,        VbenchVideo::kV4Presentation,
          VbenchVideo::kV5Hall,         VbenchVideo::kV6Chicken};
}

TEST(VideoSpecTest, Table3Metadata) {
  const VideoSpec& v1 = GetVideo(VbenchVideo::kV1Holi);
  EXPECT_EQ(v1.width, 854);
  EXPECT_EQ(v1.height, 480);
  EXPECT_EQ(v1.fps, 30);
  EXPECT_DOUBLE_EQ(v1.entropy, 7.0);
  EXPECT_NEAR(v1.source_bitrate.ToMbps(), 2.8, 1e-9);
  EXPECT_NEAR(v1.target_bitrate.ToKbps(), 819.8, 1e-9);

  const VideoSpec& v6 = GetVideo(VbenchVideo::kV6Chicken);
  EXPECT_EQ(v6.width, 3840);
  EXPECT_EQ(v6.height, 2160);
  EXPECT_NEAR(v6.source_bitrate.ToMbps(), 49.0, 1e-9);
}

TEST(VideoSpecTest, DerivedQuantities) {
  const VideoSpec& v4 = GetVideo(VbenchVideo::kV4Presentation);
  EXPECT_EQ(v4.PixelsPerFrame(), 1920 * 1080);
  EXPECT_DOUBLE_EQ(v4.PixelRate(), 1920.0 * 1080 * 25);
  EXPECT_NEAR(v4.StreamNetworkRate().ToKbps(), 645.0, 1e-6);
}

TEST(TranscodeModelTest, Table3MaxStreamColumns) {
  // Table 3 "Max. Stream Num (per SoC)": CPU 13/15/4/9/3/1, HW
  // 16/16/12/16/7/2.
  const int expected_cpu[6] = {13, 15, 4, 9, 3, 1};
  const int expected_hw[6] = {16, 16, 12, 16, 7, 2};
  int i = 0;
  for (VbenchVideo video : AllVideos()) {
    EXPECT_EQ(TranscodeModel::MaxLiveStreamsSocCpu(video), expected_cpu[i])
        << GetVideo(video).name;
    EXPECT_EQ(TranscodeModel::MaxLiveStreamsSocHw(video), expected_hw[i])
        << GetVideo(video).name;
    ++i;
  }
}

TEST(TranscodeModelTest, Table3NetworkBoundAnalysis) {
  // Reproduce Table 3's per-PCB and whole-server network usage: (src+dst
  // bitrate) x (CPU+HW streams) x 5 SoCs per PCB / x60 for the server.
  struct Expectation {
    VbenchVideo video;
    double pcb_mbps;
    double server_mbps;
  };
  // Paper values: 534/43/673/81/1008/985 and 6407/505/8072/968/12010/11821.
  const Expectation expectations[] = {
      {VbenchVideo::kV1Holi, 534.0, 6407.0},
      {VbenchVideo::kV2Desktop, 43.0, 505.0},
      {VbenchVideo::kV3Game3, 673.0, 8072.0},
      {VbenchVideo::kV4Presentation, 81.0, 968.0},
      {VbenchVideo::kV5Hall, 1008.0, 12010.0},
      {VbenchVideo::kV6Chicken, 985.0, 11821.0},
  };
  for (const Expectation& expectation : expectations) {
    const VideoSpec& spec = GetVideo(expectation.video);
    const int streams =
        TranscodeModel::MaxLiveStreamsSocCpu(expectation.video) +
        TranscodeModel::MaxLiveStreamsSocHw(expectation.video);
    const double pcb =
        spec.StreamNetworkRate().ToMbps() * streams * 5;
    const double server = spec.StreamNetworkRate().ToMbps() * streams * 60;
    // Within 3% of the published numbers (bitrates are rounded in print).
    EXPECT_NEAR(pcb, expectation.pcb_mbps, expectation.pcb_mbps * 0.03)
        << spec.name;
    EXPECT_NEAR(server, expectation.server_mbps,
                expectation.server_mbps * 0.03)
        << spec.name;
  }
}

TEST(TranscodeModelTest, OnlyV5ExceedsPcbCapacity) {
  // §4.4: among the six videos, only V5 slightly exceeds the PCB's 1 Gbps.
  for (VbenchVideo video : AllVideos()) {
    const VideoSpec& spec = GetVideo(video);
    const int streams = TranscodeModel::MaxLiveStreamsSocCpu(video) +
                        TranscodeModel::MaxLiveStreamsSocHw(video);
    const double pcb_mbps = spec.StreamNetworkRate().ToMbps() * streams * 5;
    if (video == VbenchVideo::kV5Hall) {
      EXPECT_GT(pcb_mbps, 1000.0);
    } else {
      EXPECT_LT(pcb_mbps, 1000.0);
    }
    // The 20 Gbps ESB is never the bottleneck.
    EXPECT_LT(spec.StreamNetworkRate().ToMbps() * streams * 60, 20000.0);
  }
}

TEST(TranscodeModelTest, IntelAndA40StreamTables) {
  // Implied by Table 5 TpC x monthly TCO.
  const int intel[6] = {25, 31, 8, 14, 6, 2};
  const int a40[6] = {74, 37, 18, 32, 20, 6};
  int i = 0;
  for (VbenchVideo video : AllVideos()) {
    EXPECT_EQ(TranscodeModel::MaxLiveStreamsIntelContainer(video), intel[i]);
    EXPECT_EQ(TranscodeModel::MaxLiveStreamsA40(video), a40[i]);
    ++i;
  }
}

TEST(TranscodeModelTest, UtilPerStreamConsistentWithMaxStreams) {
  for (VbenchVideo video : AllVideos()) {
    const double util = TranscodeModel::SocCpuUtilPerStream(video);
    const int max_streams = TranscodeModel::MaxLiveStreamsSocCpu(video);
    EXPECT_LE(util * max_streams, 1.0) << GetVideo(video).name;
    EXPECT_GT(util * (max_streams + 1), 1.0) << GetVideo(video).name;
  }
}

TEST(TranscodeModelTest, GenerationScalingMatchesFig14) {
  const SocSpec sd835 = SocSpecFor(SocGeneration::kSd835);
  const SocSpec sd865 = SocSpecFor(SocGeneration::kSd865);
  // Fig. 14: V4 CPU throughput on the 865 is 2.3x the 835.
  const double fps865 =
      TranscodeModel::LiveThroughputFpsSocCpu(sd865, VbenchVideo::kV4Presentation);
  const double fps835 =
      TranscodeModel::LiveThroughputFpsSocCpu(sd835, VbenchVideo::kV4Presentation);
  EXPECT_NEAR(fps865 / fps835, 2.3, 0.01);
  // HW codec: 3.8x on V4.
  const double hw865 =
      TranscodeModel::LiveThroughputFpsSocHw(sd865, VbenchVideo::kV4Presentation);
  const double hw835 =
      TranscodeModel::LiveThroughputFpsSocHw(sd835, VbenchVideo::kV4Presentation);
  EXPECT_NEAR(hw865 / hw835, 3.8, 0.01);
}

TEST(TranscodeModelTest, HwSessionLimitCapsOldAndNewGenerations) {
  const SocSpec gen1p = SocSpecFor(SocGeneration::kSd8Gen1Plus);
  // V1's throughput capacity (30 x 1.7) far exceeds the 16-session limit.
  EXPECT_EQ(TranscodeModel::MaxLiveStreamsSocHw(gen1p, VbenchVideo::kV1Holi),
            16);
}

TEST(TranscodeModelTest, ArchiveFpsTables) {
  // Single-job archive throughput (§6 Table 5 implied): the SoC is slowest,
  // the A40 fastest, on every video.
  for (VbenchVideo video : AllVideos()) {
    const double soc = TranscodeModel::ArchiveJobFps(TranscodeBackend::kSocCpu, video);
    const double intel =
        TranscodeModel::ArchiveJobFps(TranscodeBackend::kIntelCpu, video);
    const double a40 =
        TranscodeModel::ArchiveJobFps(TranscodeBackend::kNvidiaA40, video);
    EXPECT_GT(soc, 0.0);
    EXPECT_GT(intel, soc);
    EXPECT_GT(a40, intel);
  }
  // MediaCodec is excluded from archive comparisons (§4.2).
  EXPECT_EQ(TranscodeModel::ArchiveJobFps(TranscodeBackend::kSocHwCodec,
                                          VbenchVideo::kV1Holi),
            0.0);
}

TEST(TranscodeModelTest, ArchiveEfficiencyReproducesFig6b) {
  // §4.1: SoC CPUs consistently beat the Intel CPU in frames/J, and the
  // NVIDIA GPU loses only on the low-entropy V2 and V4.
  for (VbenchVideo video : AllVideos()) {
    const double soc =
        TranscodeModel::ArchiveFramesPerJoule(TranscodeBackend::kSocCpu, video);
    const double intel = TranscodeModel::ArchiveFramesPerJoule(
        TranscodeBackend::kIntelCpu, video);
    const double a40 = TranscodeModel::ArchiveFramesPerJoule(
        TranscodeBackend::kNvidiaA40, video);
    EXPECT_GT(soc, intel) << GetVideo(video).name;
    const bool low_entropy = GetVideo(video).entropy < 1.0;
    if (low_entropy) {
      EXPECT_GT(soc, a40) << GetVideo(video).name;
    } else {
      EXPECT_GT(a40, soc) << GetVideo(video).name;
    }
  }
}

TEST(QualityModelTest, SoftwareEncodersMeetTargets) {
  for (VbenchVideo video : AllVideos()) {
    const DataRate target = GetVideo(video).target_bitrate;
    EXPECT_TRUE(VideoQualityModel::MeetsBitrateTarget(VideoEncoder::kLibx264,
                                                      video, target));
    EXPECT_TRUE(VideoQualityModel::MeetsBitrateTarget(VideoEncoder::kNvenc,
                                                      video, target));
  }
}

TEST(QualityModelTest, MediaCodecFloorBreaksLowTargets) {
  // §4.2: V2's 90.5 kbps target comes out above even the source bitrate.
  const VideoSpec& v2 = GetVideo(VbenchVideo::kV2Desktop);
  const DataRate out = VideoQualityModel::OutputBitrate(
      VideoEncoder::kMediaCodec, VbenchVideo::kV2Desktop, v2.target_bitrate);
  EXPECT_GT(out.bps(), v2.target_bitrate.bps());
  EXPECT_GT(out.bps(), v2.source_bitrate.bps());
  EXPECT_FALSE(VideoQualityModel::MeetsBitrateTarget(
      VideoEncoder::kMediaCodec, VbenchVideo::kV2Desktop, v2.target_bitrate));
  // High-bitrate targets are met.
  EXPECT_TRUE(VideoQualityModel::MeetsBitrateTarget(
      VideoEncoder::kMediaCodec, VbenchVideo::kV6Chicken,
      GetVideo(VbenchVideo::kV6Chicken).target_bitrate));
}

TEST(QualityModelTest, MediaCodecMeetsMostTargets) {
  int met = 0;
  for (VbenchVideo video : AllVideos()) {
    if (VideoQualityModel::MeetsBitrateTarget(
            VideoEncoder::kMediaCodec, video, GetVideo(video).target_bitrate)) {
      ++met;
    }
  }
  // "In most cases, the hardware codec can meet the bitrate constraint".
  EXPECT_GE(met, 4);
  EXPECT_LT(met, 6);
}

TEST(QualityModelTest, PsnrOrderingMatchesFig10) {
  for (VbenchVideo video : AllVideos()) {
    const double x264 = VideoQualityModel::PsnrDb(VideoEncoder::kLibx264, video);
    const double mediacodec =
        VideoQualityModel::PsnrDb(VideoEncoder::kMediaCodec, video);
    const double nvenc = VideoQualityModel::PsnrDb(VideoEncoder::kNvenc, video);
    EXPECT_GT(x264, mediacodec) << GetVideo(video).name;
    EXPECT_GT(x264, nvenc) << GetVideo(video).name;
    // MediaCodec's loss is 1.35%-14.77% (Fig. 10).
    const double loss =
        VideoQualityModel::PsnrLossFraction(VideoEncoder::kMediaCodec, video);
    EXPECT_GE(loss, 0.0135 - 1e-9);
    EXPECT_LE(loss, 0.1477 + 1e-9);
  }
}

class LiveServiceTest : public ::testing::Test {
 protected:
  LiveServiceTest()
      : cluster_(&sim_, DefaultChassisSpec(), Snapdragon865Spec()) {
    cluster_.PowerOnAll(nullptr);
    const Status status = sim_.RunFor(Duration::Seconds(26));
    SOC_CHECK(status.ok());
  }

  Simulator sim_{5};
  SocCluster cluster_;
};

TEST_F(LiveServiceTest, AdmitsUpToClusterCapacity) {
  LiveTranscodingService service(&sim_, &cluster_, PlacementPolicy::kSpread);
  const int capacity =
      service.ClusterCapacity(VbenchVideo::kV5Hall, TranscodeBackend::kSocCpu);
  EXPECT_EQ(capacity, 180);
  int admitted = 0;
  while (true) {
    auto stream =
        service.StartStream(VbenchVideo::kV5Hall, TranscodeBackend::kSocCpu);
    if (!stream.ok()) {
      EXPECT_EQ(stream.status().code(), StatusCode::kResourceExhausted);
      break;
    }
    ++admitted;
    ASSERT_LE(admitted, capacity + 1);
  }
  EXPECT_EQ(admitted, capacity);
}

TEST_F(LiveServiceTest, SpreadPolicyBalances) {
  LiveTranscodingService service(&sim_, &cluster_, PlacementPolicy::kSpread);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(
        service.StartStream(VbenchVideo::kV4Presentation,
                            TranscodeBackend::kSocCpu).ok());
  }
  for (int i = 0; i < 60; ++i) {
    EXPECT_EQ(service.StreamsOnSoc(i), 1);
  }
}

TEST_F(LiveServiceTest, PackPolicyConsolidates) {
  LiveTranscodingService service(&sim_, &cluster_, PlacementPolicy::kPack);
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(service.StartStream(VbenchVideo::kV4Presentation,
                                    TranscodeBackend::kSocCpu).ok());
  }
  int used = 0;
  for (int i = 0; i < 60; ++i) {
    used += service.StreamsOnSoc(i) > 0 ? 1 : 0;
  }
  EXPECT_EQ(used, 1);  // All nine V4 streams fit one SoC.
}

TEST_F(LiveServiceTest, StreamsDriveNetworkLoads) {
  LiveTranscodingService service(&sim_, &cluster_, PlacementPolicy::kSpread);
  auto stream =
      service.StartStream(VbenchVideo::kV5Hall, TranscodeBackend::kSocCpu);
  ASSERT_TRUE(stream.ok());
  Network& net = cluster_.network();
  // Outbound 4.1 Mbps on the ESB uplink, inbound 16 Mbps.
  EXPECT_NEAR(net.LinkOfferedRate(cluster_.esb_uplink_out()).ToMbps(), 4.1,
              1e-6);
  EXPECT_NEAR(net.LinkOfferedRate(cluster_.esb_uplink_in()).ToMbps(), 16.0,
              1e-6);
  ASSERT_TRUE(service.StopStream(*stream).ok());
  EXPECT_NEAR(net.LinkOfferedRate(cluster_.esb_uplink_out()).ToMbps(), 0.0,
              1e-9);
}

TEST_F(LiveServiceTest, StopUnknownStreamFails) {
  LiveTranscodingService service(&sim_, &cluster_, PlacementPolicy::kSpread);
  EXPECT_EQ(service.StopStream(42).code(), StatusCode::kNotFound);
}

TEST_F(LiveServiceTest, RejectsNonSocBackends) {
  LiveTranscodingService service(&sim_, &cluster_, PlacementPolicy::kSpread);
  EXPECT_EQ(service.StartStream(VbenchVideo::kV1Holi,
                                TranscodeBackend::kIntelCpu).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(LiveServiceTest, HwStreamsUseCodecSessions) {
  LiveTranscodingService service(&sim_, &cluster_, PlacementPolicy::kPack);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(service.StartStream(VbenchVideo::kV5Hall,
                                    TranscodeBackend::kSocHwCodec).ok());
  }
  // All on one SoC, consuming codec sessions; the 8th V5 HW stream must go
  // to a new SoC (per-SoC V5 HW limit is 7).
  int first_soc = -1;
  for (int i = 0; i < 60; ++i) {
    if (service.StreamsOnSoc(i) > 0) {
      first_soc = i;
      break;
    }
  }
  ASSERT_GE(first_soc, 0);
  EXPECT_EQ(cluster_.soc(first_soc).codec_sessions(), 7);
  ASSERT_TRUE(service.StartStream(VbenchVideo::kV5Hall,
                                  TranscodeBackend::kSocHwCodec).ok());
  int used = 0;
  for (int i = 0; i < 60; ++i) {
    used += service.StreamsOnSoc(i) > 0 ? 1 : 0;
  }
  EXPECT_EQ(used, 2);
}

using LiveTranscodingTest = LiveServiceTest;

// Two V1 CPU streams share SoC 0 across a fail/repair/reboot nobody
// reported: the first stream's charge died with the failure, the second
// was charged after the reboot. Stopping the first must leave the second's.
TEST_F(LiveTranscodingTest, StopAfterUnnoticedRebootKeepsCoResidentCharge) {
  LiveTranscodingService service(&sim_, &cluster_, PlacementPolicy::kSpread);
  auto first =
      service.StartStream(VbenchVideo::kV1Holi, TranscodeBackend::kSocCpu);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(service.StreamsOnSoc(0), 1);
  SocModel& soc = cluster_.soc(0);
  const double per_stream = soc.cpu_util();
  ASSERT_GT(per_stream, 0.0);
  soc.Fail();
  soc.Repair();
  ASSERT_TRUE(soc.PowerOn(Duration::Seconds(20), nullptr).ok());
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(25)).ok());
  auto second =
      service.StartStream(VbenchVideo::kV1Holi, TranscodeBackend::kSocCpu);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(service.StreamsOnSoc(0), 2);
  ASSERT_TRUE(service.StopStream(*first).ok());
  EXPECT_EQ(service.StreamsOnSoc(0), 1);
  EXPECT_NEAR(soc.cpu_util(), per_stream, 1e-12);
  ASSERT_TRUE(service.StopStream(*second).ok());
  EXPECT_NEAR(soc.cpu_util(), 0.0, 1e-12);
}

// A failure report about a SoC that is still up (a detector false
// positive) re-homes its streams; the CPU they held must come back.
TEST_F(LiveTranscodingTest, FalsePositiveFailureReleasesCpu) {
  LiveTranscodingService service(&sim_, &cluster_, PlacementPolicy::kSpread);
  ASSERT_TRUE(
      service.StartStream(VbenchVideo::kV1Holi, TranscodeBackend::kSocCpu)
          .ok());
  ASSERT_EQ(service.StreamsOnSoc(0), 1);
  const double per_stream = cluster_.soc(0).cpu_util();
  ASSERT_TRUE(cluster_.soc(0).IsUsable());
  service.OnSocFailure(0);
  ASSERT_EQ(service.active_streams(), 1);
  double total = 0.0;
  for (int i = 0; i < cluster_.num_socs(); ++i) {
    EXPECT_NEAR(cluster_.soc(i).cpu_util(),
                per_stream * service.StreamsOnSoc(i), 1e-12)
        << "soc " << i;
    total += cluster_.soc(i).cpu_util();
  }
  EXPECT_NEAR(total, per_stream, 1e-12);
}

TEST_F(LiveServiceTest, CapacityShrinksWithFailedSocs) {
  LiveTranscodingService service(&sim_, &cluster_, PlacementPolicy::kSpread);
  cluster_.soc(0).Fail();
  cluster_.soc(1).Fail();
  EXPECT_EQ(service.ClusterCapacity(VbenchVideo::kV5Hall,
                                    TranscodeBackend::kSocCpu),
            58 * 3);
}

}  // namespace
}  // namespace soccluster
