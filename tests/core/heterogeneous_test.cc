// Tests for heterogeneous (mixed-generation) clusters.

#include <gtest/gtest.h>

#include <vector>

#include "src/cluster/cluster.h"
#include "src/workload/video/live.h"
#include "src/workload/video/transcode.h"

namespace soccluster {
namespace {

TEST(HeterogeneousClusterTest, MixedGenerationsHaveMixedCapacity) {
  Simulator sim(123);
  // Half the slots upgraded to Snapdragon 8+Gen1.
  std::vector<SocSpec> specs;
  for (int i = 0; i < 60; ++i) {
    specs.push_back(i < 30 ? SocSpecFor(SocGeneration::kSd865)
                           : SocSpecFor(SocGeneration::kSd8Gen1Plus));
  }
  SocCluster cluster(&sim, DefaultChassisSpec(), std::move(specs));
  cluster.PowerOnAll(nullptr);
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(26)).ok());
  LiveTranscodingService service(&sim, &cluster, PlacementPolicy::kSpread);
  // V5 on the 865: 3 streams; on the 8+Gen1: floor(3.2 x 1.8) = 5.
  const int capacity =
      service.ClusterCapacity(VbenchVideo::kV5Hall, TranscodeBackend::kSocCpu);
  EXPECT_EQ(capacity, 30 * 3 + 30 * 5);
  // Admission actually reaches that capacity.
  int admitted = 0;
  while (service.StartStream(VbenchVideo::kV5Hall,
                             TranscodeBackend::kSocCpu).ok()) {
    ++admitted;
    ASSERT_LE(admitted, capacity);
  }
  EXPECT_EQ(admitted, capacity);
}

TEST(HeterogeneousClusterTest, SpecVectorSizeMustMatch) {
  Simulator sim(125);
  std::vector<SocSpec> too_few(10, Snapdragon865Spec());
  EXPECT_DEATH(SocCluster(&sim, DefaultChassisSpec(), std::move(too_few)),
               "");
}

}  // namespace
}  // namespace soccluster
