// Tests for the discrete GPU, edge server, energy meter, spec tables, and
// the Table 2 micro-benchmark model.

#include <gtest/gtest.h>

#include "src/hw/gpu.h"
#include "src/hw/microbench.h"
#include "src/hw/power.h"
#include "src/hw/server.h"
#include "src/hw/specs.h"
#include "src/sim/simulator.h"

namespace soccluster {
namespace {

TEST(EnergyMeterTest, IntegratesPiecewiseConstantPower) {
  Simulator sim;
  EnergyMeter meter;
  meter.SetPower(sim.Now(), Power::Watts(100.0));
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(10)).ok());
  meter.SetPower(sim.Now(), Power::Watts(50.0));
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(10)).ok());
  EXPECT_NEAR(meter.TotalEnergy(sim.Now()).joules(), 1500.0, 1e-9);
  EXPECT_NEAR(meter.AveragePower(sim.Now()).watts(), 75.0, 1e-9);
  EXPECT_NEAR(meter.Observed(sim.Now()).ToSeconds(), 20.0, 1e-9);
}

TEST(DiscreteGpuTest, IdleAndUtilizationPower) {
  Simulator sim;
  DiscreteGpuModel gpu(&sim, GpuSpecFor(GpuModelKind::kA40), 0);
  EXPECT_DOUBLE_EQ(gpu.CurrentPower().watts(), 40.0);
  ASSERT_TRUE(gpu.SetComputeUtil(1.0).ok());
  EXPECT_DOUBLE_EQ(gpu.CurrentPower().watts(), 300.0);
  ASSERT_TRUE(gpu.SetComputeUtil(0.5).ok());
  EXPECT_DOUBLE_EQ(gpu.CurrentPower().watts(), 170.0);
}

TEST(DiscreteGpuTest, UtilBounds) {
  Simulator sim;
  DiscreteGpuModel gpu(&sim, GpuSpecFor(GpuModelKind::kA40), 0);
  EXPECT_EQ(gpu.SetComputeUtil(-0.1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(gpu.SetComputeUtil(1.1).code(), StatusCode::kOutOfRange);
}

TEST(DiscreteGpuTest, VideoEnginePowerStacksAndCaps) {
  Simulator sim;
  DiscreteGpuModel gpu(&sim, GpuSpecFor(GpuModelKind::kA40), 0);
  ASSERT_TRUE(gpu.SetVideoEnginePower(Power::Watts(60.0)).ok());
  EXPECT_DOUBLE_EQ(gpu.CurrentPower().watts(), 100.0);
  // Stacked demands cap at the board limit.
  ASSERT_TRUE(gpu.SetComputeUtil(1.0).ok());
  EXPECT_DOUBLE_EQ(gpu.CurrentPower().watts(), 300.0);
}

TEST(DiscreteGpuTest, A100HasNoNvenc) {
  Simulator sim;
  DiscreteGpuModel gpu(&sim, GpuSpecFor(GpuModelKind::kA100), 0);
  EXPECT_EQ(gpu.SetVideoEnginePower(Power::Watts(10.0)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(gpu.spec().has_nvenc);
}

TEST(EdgeServerTest, IdlePowerAndContainerScaling) {
  Simulator sim;
  EdgeServerModel server(&sim, DefaultEdgeServerSpec(), 0);
  const EdgeServerSpec spec = DefaultEdgeServerSpec();
  EXPECT_DOUBLE_EQ(server.HostPower().watts(), spec.host_idle.watts());
  for (int c = 0; c < server.num_containers(); ++c) {
    ASSERT_TRUE(server.SetContainerUtil(c, 1.0).ok());
  }
  // Fully loaded: idle + all wakes + full dynamic. Table 4 W/O GPU column
  // reads ~633 W during V5 live transcoding near full load.
  const double full = spec.host_idle.watts() +
                      spec.containers * spec.container_wake.watts() +
                      spec.cpu_dynamic_full.watts();
  EXPECT_DOUBLE_EQ(server.HostPower().watts(), full);
  EXPECT_NEAR(full, 643.0, 1.0);
}

TEST(EdgeServerTest, ContainerValidation) {
  Simulator sim;
  EdgeServerModel server(&sim, DefaultEdgeServerSpec(), 0);
  EXPECT_EQ(server.SetContainerUtil(-1, 0.5).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(server.SetContainerUtil(10, 0.5).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(server.SetContainerUtil(0, 1.5).code(), StatusCode::kOutOfRange);
}

TEST(EdgeServerTest, GpusContributeToTotalPower) {
  Simulator sim;
  EdgeServerModel server(&sim, DefaultEdgeServerSpec(), 8);
  EXPECT_EQ(server.num_gpus(), 8);
  // Idle host + 8 idle A40s.
  EXPECT_DOUBLE_EQ(server.CurrentPower().watts(), 255.0 + 8 * 40.0);
}

TEST(EdgeServerTest, EnergyAccumulatesAcrossComponents) {
  Simulator sim;
  EdgeServerModel server(&sim, DefaultEdgeServerSpec(), 1);
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(10)).ok());
  const double expected = (255.0 + 40.0) * 10.0;
  EXPECT_NEAR(server.TotalEnergy().joules(), expected, 1e-6);
}

TEST(SpecsTest, GenerationTableMatchesLongitudinalAnchors) {
  const SocSpec sd835 = SocSpecFor(SocGeneration::kSd835);
  const SocSpec sd845 = SocSpecFor(SocGeneration::kSd845);
  const SocSpec sd865 = SocSpecFor(SocGeneration::kSd865);
  const SocSpec gen1p = SocSpecFor(SocGeneration::kSd8Gen1Plus);
  // Fig. 14: DL-CPU improves 4.8x 2017->2022; GPU 3.2x; DSP 8.4x from 845.
  EXPECT_NEAR(gen1p.cpu_dl_factor / sd835.cpu_dl_factor, 4.8, 0.01);
  EXPECT_NEAR(gen1p.gpu_dl_factor / sd835.gpu_dl_factor, 3.2, 0.01);
  EXPECT_NEAR(gen1p.dsp_dl_factor / sd845.dsp_dl_factor, 8.4, 0.05);
  // §7: 865 transcodes V4 2.3x faster than the 835; 8+Gen1 1.8x the 865.
  EXPECT_NEAR(sd865.cpu_transcode_factor / sd835.cpu_transcode_factor, 2.3,
              0.01);
  EXPECT_NEAR(gen1p.cpu_transcode_factor, 1.8, 0.01);
  // §7: 865 hardware codec 3.8x the 835.
  EXPECT_NEAR(sd865.codec_factor / sd835.codec_factor, 3.8, 0.01);
}

TEST(SpecsTest, GenerationsAreOrdered) {
  double prev_cpu = 0.0;
  for (SocGeneration gen : AllSocGenerations()) {
    const SocSpec spec = SocSpecFor(gen);
    EXPECT_GT(spec.cpu_dl_factor, prev_cpu) << spec.name;
    prev_cpu = spec.cpu_dl_factor;
    EXPECT_GE(SocGenerationYear(gen), 2017);
    EXPECT_LE(SocGenerationYear(gen), 2022);
  }
}

TEST(SpecsTest, ChassisConsistency) {
  const ClusterChassisSpec chassis = DefaultChassisSpec();
  EXPECT_EQ(chassis.num_socs, chassis.num_pcbs * chassis.socs_per_pcb);
  EXPECT_EQ(chassis.num_socs, 60);
  EXPECT_DOUBLE_EQ(chassis.esb_uplink.ToGbps(), 20.0);
  EXPECT_DOUBLE_EQ(chassis.pcb_uplink.ToGbps(), 1.0);
}

TEST(MicrobenchTest, ReproducesTable2PerCore) {
  MicrobenchModel model;
  // Table 2, per-core column.
  EXPECT_DOUBLE_EQ(model.PerCoreScore(BenchPlatform::kSocCluster,
                                      MicrobenchMetric::kCpuScore), 911.0);
  EXPECT_DOUBLE_EQ(model.PerCoreScore(BenchPlatform::kTraditional,
                                      MicrobenchMetric::kCpuScore), 840.0);
  EXPECT_DOUBLE_EQ(model.PerCoreScore(BenchPlatform::kGraviton2,
                                      MicrobenchMetric::kCpuScore), 762.0);
  EXPECT_DOUBLE_EQ(model.PerCoreScore(BenchPlatform::kGraviton3,
                                      MicrobenchMetric::kCpuScore), 1121.0);
}

TEST(MicrobenchTest, ReproducesTable2WholeServer) {
  MicrobenchModel model;
  // Table 2, whole-server column, within 0.5% (the efficiency table is
  // stored to 4 decimals).
  EXPECT_NEAR(model.WholeServerScore(BenchPlatform::kSocCluster,
                                     MicrobenchMetric::kCpuScore),
              194100.0, 1000.0);
  EXPECT_NEAR(model.WholeServerScore(BenchPlatform::kTraditional,
                                     MicrobenchMetric::kCpuScore),
              15450.0, 100.0);
  EXPECT_NEAR(model.WholeServerScore(BenchPlatform::kGraviton3,
                                     MicrobenchMetric::kPdfRender),
              3960.0, 30.0);
}

TEST(MicrobenchTest, HeadlineRatiosHold) {
  MicrobenchModel model;
  // §2.3: the cluster has 3.8x the CPU score and 3.2x the PDF rendering
  // speed of the Graviton 3 instance.
  const double cpu_ratio =
      model.WholeServerScore(BenchPlatform::kSocCluster,
                             MicrobenchMetric::kCpuScore) /
      model.WholeServerScore(BenchPlatform::kGraviton3,
                             MicrobenchMetric::kCpuScore);
  EXPECT_NEAR(cpu_ratio, 3.8, 0.1);
  const double pdf_ratio =
      model.WholeServerScore(BenchPlatform::kSocCluster,
                             MicrobenchMetric::kPdfRender) /
      model.WholeServerScore(BenchPlatform::kGraviton3,
                             MicrobenchMetric::kPdfRender);
  EXPECT_NEAR(pdf_ratio, 3.2, 0.1);
}

TEST(MicrobenchTest, ClusterScoreScalesWithSocCount) {
  MicrobenchModel model;
  const double full = model.SocClusterScore(MicrobenchMetric::kCpuScore, 60);
  const double half = model.SocClusterScore(MicrobenchMetric::kCpuScore, 30);
  EXPECT_NEAR(full / half, 2.0, 1e-9);
  EXPECT_NEAR(full,
              model.WholeServerScore(BenchPlatform::kSocCluster,
                                     MicrobenchMetric::kCpuScore),
              1e-6);
  EXPECT_EQ(model.SocClusterScore(MicrobenchMetric::kCpuScore, 0), 0.0);
}

TEST(MicrobenchTest, EfficiencyWithinPhysicalBounds) {
  MicrobenchModel model;
  for (BenchPlatform platform : AllBenchPlatforms()) {
    for (MicrobenchMetric metric : AllMicrobenchMetrics()) {
      const double eff = model.MulticoreEfficiency(platform, metric);
      EXPECT_GT(eff, 0.0);
      EXPECT_LE(eff, 1.0);
    }
  }
}

}  // namespace
}  // namespace soccluster
