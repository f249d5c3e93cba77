// Property tests for the serverless platform: memory conservation, stat
// consistency, and graceful behaviour under SoC failures, across random
// workload mixes.

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/workload/serverless/serverless.h"

namespace soccluster {
namespace {

class ServerlessProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServerlessProperty, MemoryAccountingIsConserved) {
  Simulator sim(GetParam());
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(26)).ok());
  ServerlessConfig config;
  config.keep_alive = Duration::Seconds(20);
  ServerlessPlatform platform(&sim, &cluster, config);
  Rng rng(GetParam() ^ 0x5e1f);

  std::vector<FunctionSpec> specs;
  for (int f = 0; f < 6; ++f) {
    FunctionSpec spec;
    spec.name = "f" + std::to_string(f);
    spec.memory_mb = rng.Uniform(64.0, 512.0);
    spec.exec_median = Duration::MillisF(rng.Uniform(10.0, 200.0));
    spec.cpu_util = rng.Uniform(0.05, 0.3);
    ASSERT_TRUE(platform.RegisterFunction(spec).ok());
    specs.push_back(spec);
  }
  // Random invocation bursts interleaved with time.
  for (int burst = 0; burst < 20; ++burst) {
    const int count = static_cast<int>(rng.UniformInt(1, 30));
    for (int i = 0; i < count; ++i) {
      const size_t which = static_cast<size_t>(rng.UniformInt(0, 5));
      ASSERT_TRUE(platform.Invoke(specs[which].name, nullptr).ok());
    }
    ASSERT_TRUE(
        sim.RunFor(Duration::SecondsF(rng.Uniform(0.1, 10.0))).ok());
    // Invariant: per-SoC resident memory equals the sum over instances.
    double expected_total = 0.0;
    for (const FunctionSpec& spec : specs) {
      expected_total += spec.memory_mb * platform.InstanceCount(spec.name);
    }
    double actual_total = 0.0;
    for (int i = 0; i < cluster.num_socs(); ++i) {
      const double mb = platform.SocMemoryMb(i);
      EXPECT_GE(mb, -1e-9);
      EXPECT_LE(mb, ServerlessPlatform::kSocMemoryBudgetMb + 1e-9);
      actual_total += mb;
    }
    EXPECT_NEAR(actual_total, expected_total, 1e-6);
  }
  // Drain: all instances eventually evict and every byte is returned.
  sim.Run();
  for (int i = 0; i < cluster.num_socs(); ++i) {
    EXPECT_NEAR(platform.SocMemoryMb(i), 0.0, 1e-9);
  }
  const InvocationStats& stats = platform.stats();
  EXPECT_LE(stats.cold_starts + stats.rejected, stats.invocations);
  EXPECT_EQ(static_cast<int64_t>(stats.latency_ms.count()),
            stats.invocations - stats.rejected);
}

TEST_P(ServerlessProperty, SurvivesSocFailuresMidFlight) {
  Simulator sim(GetParam());
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(26)).ok());
  ServerlessPlatform platform(&sim, &cluster, ServerlessConfig{});
  FunctionSpec spec;
  spec.name = "svc";
  spec.memory_mb = 128.0;
  spec.exec_median = Duration::MillisF(500.0);
  spec.cpu_util = 0.2;
  ASSERT_TRUE(platform.RegisterFunction(spec).ok());
  Rng rng(GetParam() ^ 0xdead);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(platform.Invoke("svc", nullptr).ok());
  }
  // Fail a few random SoCs while invocations are in flight.
  for (int f = 0; f < 5; ++f) {
    cluster.soc(static_cast<int>(rng.UniformInt(0, 59))).Fail();
  }
  ASSERT_TRUE(sim.RunFor(Duration::Minutes(30)).ok());
  // Fresh invocations still work on the survivors.
  ASSERT_TRUE(platform.Invoke("svc", nullptr).ok());
  ASSERT_TRUE(sim.RunFor(Duration::Minutes(30)).ok());
  EXPECT_GT(platform.stats().latency_ms.count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServerlessProperty,
                         ::testing::Values(3u, 6u, 9u, 12u, 15u, 18u));

}  // namespace
}  // namespace soccluster
