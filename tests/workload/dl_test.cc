// DL workload tests: model zoo structure, engine calibration (Fig. 11,
// Table 7), serving DES components, and collaborative inference (Fig. 13).

#include <array>

#include <gtest/gtest.h>

#include "src/base/check.h"
#include "src/cluster/cluster.h"
#include "src/workload/dl/collab.h"
#include "src/trace/loadgen.h"
#include "src/workload/dl/engine.h"
#include "src/workload/dl/model.h"
#include "src/workload/dl/serving.h"

namespace soccluster {
namespace {

TEST(DnnModelTest, ZooBasics) {
  const DnnModelSpec& r50 = GetDnnModel(DnnModel::kResNet50);
  EXPECT_EQ(r50.name, "ResNet-50");
  EXPECT_NEAR(r50.gflops, 4.1, 1e-9);
  EXPECT_EQ(r50.blocks.size(), 16u);  // 3+4+6+3 residual blocks.
  const DnnModelSpec& r152 = GetDnnModel(DnnModel::kResNet152);
  EXPECT_EQ(r152.blocks.size(), 50u);  // 3+8+36+3.
  EXPECT_GT(GetDnnModel(DnnModel::kYoloV5x).gflops, r152.gflops);
  EXPECT_TRUE(GetDnnModel(DnnModel::kBertBase).blocks.empty());
}

TEST(DnnModelTest, BlockFlopsSumToTotal) {
  for (DnnModel model : {DnnModel::kResNet50, DnnModel::kResNet152,
                         DnnModel::kYoloV5x}) {
    const DnnModelSpec& spec = GetDnnModel(model);
    double sum = 0.0;
    for (const DnnBlock& block : spec.blocks) {
      sum += block.gflops;
    }
    EXPECT_NEAR(sum, spec.gflops, 1e-6) << spec.name;
  }
}

TEST(DnnModelTest, ResNetHaloBytesAreUniform) {
  // ResNet halves spatial dims while doubling channels, so H x C is
  // constant: every halo exchange moves the same 57 KB per side (FP32).
  const DnnModelSpec& r50 = GetDnnModel(DnnModel::kResNet50);
  for (const DnnBlock& block : r50.blocks) {
    EXPECT_NEAR(block.HaloBytes(Precision::kFp32).ToBytes(), 57344.0, 1.0)
        << block.name;
    EXPECT_NEAR(block.HaloBytes(Precision::kInt8).ToBytes(), 14336.0, 1.0);
  }
}

TEST(DlEngineTest, SupportMatrixMatchesPaperStacks) {
  // TFLite GPU delegate: convnets only.
  EXPECT_TRUE(DlEngineModel::Supports(DlDevice::kSocGpu, DnnModel::kResNet50,
                                      Precision::kFp32));
  EXPECT_FALSE(DlEngineModel::Supports(DlDevice::kSocGpu, DnnModel::kBertBase,
                                       Precision::kFp32));
  EXPECT_FALSE(DlEngineModel::Supports(DlDevice::kSocGpu, DnnModel::kResNet50,
                                       Precision::kInt8));
  // Hexagon DSP: INT8 convnets only.
  EXPECT_TRUE(DlEngineModel::Supports(DlDevice::kSocDsp, DnnModel::kResNet152,
                                      Precision::kInt8));
  EXPECT_FALSE(DlEngineModel::Supports(DlDevice::kSocDsp, DnnModel::kResNet50,
                                       Precision::kFp32));
  EXPECT_FALSE(DlEngineModel::Supports(DlDevice::kSocDsp, DnnModel::kYoloV5x,
                                       Precision::kInt8));
  // CPU and discrete GPUs run everything FP32.
  for (DnnModel model : AllDnnModels()) {
    EXPECT_TRUE(DlEngineModel::Supports(DlDevice::kSocCpu, model,
                                        Precision::kFp32));
    EXPECT_TRUE(DlEngineModel::Supports(DlDevice::kA40, model,
                                        Precision::kFp32));
    EXPECT_TRUE(DlEngineModel::Supports(DlDevice::kA100, model,
                                        Precision::kFp32));
  }
}

TEST(DlEngineTest, SocLatencyAnchors) {
  // Fig. 11a / Table 7 / §5.1 anchors.
  EXPECT_NEAR(DlEngineModel::Latency(DlDevice::kSocCpu, DnnModel::kResNet50,
                                     Precision::kFp32, 1).ToMillis(),
              81.2, 0.01);
  EXPECT_NEAR(DlEngineModel::Latency(DlDevice::kSocGpu, DnnModel::kResNet50,
                                     Precision::kFp32, 1).ToMillis(),
              32.5, 0.01);
  EXPECT_NEAR(DlEngineModel::Latency(DlDevice::kSocDsp, DnnModel::kResNet50,
                                     Precision::kInt8, 1).ToMillis(),
              8.8, 0.01);
  EXPECT_NEAR(DlEngineModel::Latency(DlDevice::kSocDsp, DnnModel::kResNet152,
                                     Precision::kInt8, 1).ToMillis(),
              21.0, 0.01);
  EXPECT_NEAR(DlEngineModel::Latency(DlDevice::kSocGpu, DnnModel::kYoloV5x,
                                     Precision::kFp32, 1).ToMillis(),
              620.6, 0.01);
}

TEST(DlEngineTest, SocGpuLatencyAdvantageOverCpu) {
  // §5.1 observation (1): SoC GPUs are 1.55x-2.61x faster than SoC CPUs.
  for (DnnModel model : {DnnModel::kResNet50, DnnModel::kResNet152,
                         DnnModel::kYoloV5x}) {
    const double ratio =
        DlEngineModel::Latency(DlDevice::kSocCpu, model, Precision::kFp32, 1) /
        DlEngineModel::Latency(DlDevice::kSocGpu, model, Precision::kFp32, 1);
    EXPECT_GE(ratio, 1.55) << DnnModelName(model);
    EXPECT_LE(ratio, 2.61) << DnnModelName(model);
  }
}

TEST(DlEngineTest, GpuBatchingTradesLatencyForThroughput) {
  const Duration bs1 = DlEngineModel::Latency(DlDevice::kA40,
                                              DnnModel::kResNet50,
                                              Precision::kFp32, 1);
  const Duration bs64 = DlEngineModel::Latency(DlDevice::kA40,
                                               DnnModel::kResNet50,
                                               Precision::kFp32, 64);
  EXPECT_GT(bs64, bs1);
  const double thpt1 = DlEngineModel::Throughput(DlDevice::kA40,
                                                 DnnModel::kResNet50,
                                                 Precision::kFp32, 1);
  const double thpt64 = DlEngineModel::Throughput(DlDevice::kA40,
                                                  DnnModel::kResNet50,
                                                  Precision::kFp32, 64);
  EXPECT_GT(thpt64, thpt1 * 3.0);
  EXPECT_NEAR(thpt64, 2580.0, 1.0);
}

TEST(DlEngineTest, A40Bs64YoloCrossesSocGpuLatency) {
  // §5.1 observation (2): at batch 64, YOLOv5x on the A40 approaches or
  // exceeds the SoC Cluster's latency.
  const Duration a40 = DlEngineModel::Latency(DlDevice::kA40,
                                              DnnModel::kYoloV5x,
                                              Precision::kFp32, 64);
  const Duration soc = DlEngineModel::Latency(DlDevice::kSocGpu,
                                              DnnModel::kYoloV5x,
                                              Precision::kFp32, 1);
  EXPECT_GT(a40.ToMillis(), soc.ToMillis() * 0.95);
}

TEST(DlEngineTest, EnergyEfficiencyAnchors) {
  // Fig. 11b: SoC GPU processes ~18 samples/J on ResNet-50 FP32.
  EXPECT_NEAR(DlEngineModel::SamplesPerJoule(DlDevice::kSocGpu,
                                             DnnModel::kResNet50,
                                             Precision::kFp32, 1),
              18.0, 0.5);
  // 7.09x the Intel CPU; 1.78x the A40 (bs 64); 1.15x the A100 (bs 64).
  const double soc_gpu = DlEngineModel::SamplesPerJoule(
      DlDevice::kSocGpu, DnnModel::kResNet50, Precision::kFp32, 1);
  const double intel = DlEngineModel::SamplesPerJoule(
      DlDevice::kIntelContainer, DnnModel::kResNet50, Precision::kFp32, 1);
  const double a40 = DlEngineModel::SamplesPerJoule(
      DlDevice::kA40, DnnModel::kResNet50, Precision::kFp32, 64);
  const double a100 = DlEngineModel::SamplesPerJoule(
      DlDevice::kA100, DnnModel::kResNet50, Precision::kFp32, 64);
  EXPECT_NEAR(soc_gpu / intel, 7.09, 1.5);
  EXPECT_NEAR(soc_gpu / a40, 1.78, 0.25);
  EXPECT_NEAR(soc_gpu / a100, 1.15, 0.15);
}

TEST(DlEngineTest, DspQuantizedEfficiencyDominates) {
  // Fig. 11b: on ResNet-152 INT8, the DSP is ~42x the Intel CPU and ~1.5x
  // the A100 (bs 64).
  const double dsp = DlEngineModel::SamplesPerJoule(
      DlDevice::kSocDsp, DnnModel::kResNet152, Precision::kInt8, 1);
  const double intel = DlEngineModel::SamplesPerJoule(
      DlDevice::kIntelContainer, DnnModel::kResNet152, Precision::kInt8, 1);
  const double a100 = DlEngineModel::SamplesPerJoule(
      DlDevice::kA100, DnnModel::kResNet152, Precision::kInt8, 64);
  EXPECT_NEAR(dsp / intel, 42.0, 6.0);
  EXPECT_NEAR(dsp / a100, 1.5, 0.25);
}

TEST(DlEngineTest, DspBatchBoost) {
  // §7: batch 8 yields ~1.7x DSP throughput.
  const double bs1 = DlEngineModel::Throughput(DlDevice::kSocDsp,
                                               DnnModel::kResNet50,
                                               Precision::kInt8, 1);
  const double bs8 = DlEngineModel::Throughput(DlDevice::kSocDsp,
                                               DnnModel::kResNet50,
                                               Precision::kInt8, 8);
  EXPECT_NEAR(bs8 / bs1, 1.7, 0.01);
}

TEST(DlEngineTest, NonBatchingDevicesSerializeBatches) {
  const Duration bs1 = DlEngineModel::Latency(DlDevice::kSocCpu,
                                              DnnModel::kResNet50,
                                              Precision::kFp32, 1);
  const Duration bs4 = DlEngineModel::Latency(DlDevice::kSocCpu,
                                              DnnModel::kResNet50,
                                              Precision::kFp32, 4);
  EXPECT_NEAR(bs4.ToMillis(), 4.0 * bs1.ToMillis(), 1e-6);
  // Throughput does not improve.
  EXPECT_DOUBLE_EQ(DlEngineModel::Throughput(DlDevice::kSocCpu,
                                             DnnModel::kResNet50,
                                             Precision::kFp32, 4),
                   DlEngineModel::Throughput(DlDevice::kSocCpu,
                                             DnnModel::kResNet50,
                                             Precision::kFp32, 1));
}

TEST(DlEngineTest, LongitudinalScaling) {
  const SocSpec gen1p = SocSpecFor(SocGeneration::kSd8Gen1Plus);
  const SocSpec sd835 = SocSpecFor(SocGeneration::kSd835);
  const Duration newest = DlEngineModel::SocLatency(
      gen1p, DlDevice::kSocCpu, DnnModel::kResNet50, Precision::kFp32);
  const Duration oldest = DlEngineModel::SocLatency(
      sd835, DlDevice::kSocCpu, DnnModel::kResNet50, Precision::kFp32);
  EXPECT_NEAR(oldest / newest, 4.8, 0.01);
}

TEST(OpenLoopSourceTest, GeneratesAtConfiguredRate) {
  Simulator sim(21);
  int64_t received = 0;
  OpenLoopSource source(&sim, 100.0, Duration::Seconds(100),
                        [&] { ++received; });
  source.Start();
  sim.Run();
  EXPECT_EQ(source.generated(), received);
  EXPECT_NEAR(static_cast<double>(received), 10000.0, 300.0);
}

class ServingTest : public ::testing::Test {
 protected:
  ServingTest()
      : cluster_(&sim_, DefaultChassisSpec(), Snapdragon865Spec()) {
    cluster_.PowerOnAll(nullptr);
    const Status status = sim_.RunFor(Duration::Seconds(26));
    SOC_CHECK(status.ok());
  }

  Simulator sim_{23};
  SocCluster cluster_;
};

TEST_F(ServingTest, FleetServesSubmittedRequests) {
  SocServingFleet fleet(&sim_, &cluster_, DlDevice::kSocGpu,
                        DnnModel::kResNet50, Precision::kFp32);
  fleet.SetActiveCount(4);
  for (int i = 0; i < 100; ++i) {
    fleet.Submit();
  }
  sim_.Run();
  EXPECT_EQ(fleet.completed(), 100);
  EXPECT_EQ(fleet.queue_length(), 0);
  EXPECT_EQ(fleet.latencies().count(), 100u);
  // Service time per request is 1/55.4 s ~ 18 ms; with queueing the mean
  // exceeds it.
  EXPECT_GE(fleet.latencies().Mean(), 18.0);
}

TEST_F(ServingTest, FleetUtilizationDrivesSocPower) {
  SocServingFleet fleet(&sim_, &cluster_, DlDevice::kSocGpu,
                        DnnModel::kResNet50, Precision::kFp32);
  fleet.SetActiveCount(1);
  const double idle = cluster_.soc(0).CurrentPower().watts();
  fleet.Submit();
  EXPECT_NEAR(cluster_.soc(0).CurrentPower().watts(),
              idle + Snapdragon865Spec().gpu_active_full.watts(), 1e-9);
  sim_.Run();
  EXPECT_NEAR(cluster_.soc(0).CurrentPower().watts(), idle, 1e-9);
}

TEST_F(ServingTest, ZeroActiveSocsQueuesRequests) {
  SocServingFleet fleet(&sim_, &cluster_, DlDevice::kSocCpu,
                        DnnModel::kResNet50, Precision::kFp32);
  fleet.Submit();
  fleet.Submit();
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(5)).ok());
  EXPECT_EQ(fleet.completed(), 0);
  EXPECT_EQ(fleet.queue_length(), 2);
  fleet.SetActiveCount(1);
  sim_.Run();
  EXPECT_EQ(fleet.completed(), 2);
}

// What a fleet run does, read through the counters exact latency samples
// must not change, plus the sample store itself.
struct ExactLatencyRun {
  int64_t completed = 0;
  std::array<int64_t, kNumPriorities> completed_of{};
  int64_t histogram_count = 0;
  size_t samples = 0;
  std::array<size_t, kNumPriorities> samples_of{};
};

ExactLatencyRun RunFleetWithExactSamples(bool exact) {
  Simulator sim(31);
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  SOC_CHECK(sim.RunFor(Duration::Seconds(26)).ok());
  SocServingFleet fleet(&sim, &cluster, DlDevice::kSocGpu,
                        DnnModel::kResNet50, Precision::kFp32);
  fleet.SetActiveCount(4);
  fleet.SetExactLatencySamples(exact);
  int64_t submitted = 0;
  OpenLoopSource source(&sim, /*rate_per_s=*/200.0, Duration::Seconds(20),
                        [&] {
                          fleet.Submit(static_cast<Priority>(
                              submitted++ % kNumPriorities));
                        });
  source.Start();
  sim.Run();
  ExactLatencyRun run;
  run.completed = fleet.completed();
  run.histogram_count =
      sim.metrics().GetHistogram("dl.serving.latency_ms")->count();
  run.samples = fleet.latencies().count();
  for (int p = 0; p < kNumPriorities; ++p) {
    run.completed_of[p] = fleet.completed_of(static_cast<Priority>(p));
    run.samples_of[p] = fleet.latencies_of(static_cast<Priority>(p)).count();
  }
  return run;
}

TEST(ServingExactLatencyTest, SamplesOffChangesNothingButTheSamples) {
  const ExactLatencyRun on = RunFleetWithExactSamples(true);
  const ExactLatencyRun off = RunFleetWithExactSamples(false);
  EXPECT_GT(on.completed, 0);
  EXPECT_EQ(off.completed, on.completed);
  EXPECT_EQ(off.completed_of, on.completed_of);
  EXPECT_EQ(on.histogram_count, on.completed);
  EXPECT_EQ(off.histogram_count, on.histogram_count);
  EXPECT_EQ(on.samples, static_cast<size_t>(on.completed));
  for (int p = 0; p < kNumPriorities; ++p) {
    EXPECT_GT(on.completed_of[p], 0) << "class " << p;
    EXPECT_EQ(on.samples_of[p], static_cast<size_t>(on.completed_of[p]));
    EXPECT_EQ(off.samples_of[p], 0u) << "class " << p;
  }
  EXPECT_EQ(off.samples, 0u);
}

TEST(GpuBatchServerTest, BatchesUpToLimit) {
  Simulator sim(29);
  DiscreteGpuModel gpu(&sim, GpuSpecFor(GpuModelKind::kA40), 0);
  GpuBatchServer server(&sim, &gpu, DlDevice::kA40, DnnModel::kResNet50,
                        Precision::kFp32, /*max_batch=*/8,
                        Duration::MillisF(5.0));
  for (int i = 0; i < 16; ++i) {
    server.Submit();
  }
  sim.Run();
  EXPECT_EQ(server.completed(), 16);
  // Two full batches of 8; per-request latency stays in the few-ms range.
  EXPECT_LT(server.latencies().Max(), 25.0);
}

TEST(GpuBatchServerTest, TimeoutFlushesPartialBatch) {
  Simulator sim(31);
  DiscreteGpuModel gpu(&sim, GpuSpecFor(GpuModelKind::kA40), 0);
  GpuBatchServer server(&sim, &gpu, DlDevice::kA40, DnnModel::kResNet50,
                        Precision::kFp32, /*max_batch=*/64,
                        Duration::MillisF(10.0));
  server.Submit();
  sim.Run();
  EXPECT_EQ(server.completed(), 1);
  // Waited out the 10 ms timeout, then ran a batch of one (~2 ms).
  EXPECT_NEAR(server.latencies().Max(), 12.0, 0.5);
}

TEST(GpuBatchServerTest, GpuPowerTracksBatchActivity) {
  Simulator sim(33);
  DiscreteGpuModel gpu(&sim, GpuSpecFor(GpuModelKind::kA40), 0);
  GpuBatchServer server(&sim, &gpu, DlDevice::kA40, DnnModel::kResNet50,
                        Precision::kFp32, 64, Duration::MillisF(1.0));
  EXPECT_DOUBLE_EQ(gpu.CurrentPower().watts(), 40.0);
  for (int i = 0; i < 64; ++i) {
    server.Submit();
  }
  // Batch launches immediately at full size; power rises toward max.
  EXPECT_GT(gpu.CurrentPower().watts(), 250.0);
  sim.Run();
  EXPECT_DOUBLE_EQ(gpu.CurrentPower().watts(), 40.0);
}

class CollabTest : public ::testing::Test {
 protected:
  CollabTest()
      : cluster_(&sim_, DefaultChassisSpec(), Snapdragon865Spec()) {
    cluster_.PowerOnAll(nullptr);
    const Status status = sim_.RunFor(Duration::Seconds(26));
    SOC_CHECK(status.ok());
  }

  CollabResult RunOnce(int num_socs, bool pipelined) {
    CollaborativeInference collab(&sim_, &cluster_, DnnModel::kResNet50,
                                  num_socs, pipelined);
    CollabResult result;
    bool done = false;
    collab.Run([&](const CollabResult& r) {
      result = r;
      done = true;
    });
    sim_.Run();
    SOC_CHECK(done);
    return result;
  }

  Simulator sim_{37};
  SocCluster cluster_;
};

TEST_F(CollabTest, SingleSocMatchesMnnAnchor) {
  const CollabResult result = RunOnce(1, /*pipelined=*/false);
  EXPECT_NEAR(result.total.ToMillis(), 80.0, 0.5);
  EXPECT_NEAR(result.comm.ToMillis(), 0.0, 0.5);
}

TEST_F(CollabTest, FiveSocsReproduceFig13) {
  const CollabResult single = RunOnce(1, false);
  const CollabResult five = RunOnce(5, false);
  // §5.3: compute drops 80 -> ~34 ms (2.35x), total speedup only ~1.38x,
  // and communication is ~41.5% of total latency.
  EXPECT_NEAR(five.compute.ToMillis(), 34.0, 2.0);
  EXPECT_NEAR(five.Speedup(single), 1.38, 0.12);
  EXPECT_NEAR(five.CommShare(), 0.415, 0.05);
}

TEST_F(CollabTest, PipeliningHidesMostTransferTime) {
  const CollabResult sequential = RunOnce(5, false);
  const CollabResult pipelined = RunOnce(5, true);
  EXPECT_LT(pipelined.total.ToMillis(), sequential.total.ToMillis());
  // §5.3: with pipelining, communication still accounts for ~22.9%.
  EXPECT_NEAR(pipelined.CommShare(), 0.229, 0.07);
}

TEST_F(CollabTest, MoreSocsDoNotScaleProportionally) {
  const CollabResult single = RunOnce(1, false);
  const CollabResult two = RunOnce(2, false);
  const CollabResult five = RunOnce(5, false);
  // Monotone improvement but far from linear.
  EXPECT_LT(five.total.ToMillis(), two.total.ToMillis());
  EXPECT_LT(two.total.ToMillis(), single.total.ToMillis());
  EXPECT_LT(five.Speedup(single), 2.5);
}

TEST_F(CollabTest, SocsReleasedAfterRun) {
  RunOnce(5, false);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(cluster_.soc(i).cpu_util(), 0.0);
  }
}

}  // namespace
}  // namespace soccluster
