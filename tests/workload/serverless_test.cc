#include "src/base/check.h"
#include "src/qos/breaker.h"
#include "src/workload/serverless/serverless.h"

#include <gtest/gtest.h>

namespace soccluster {
namespace {

class ServerlessTest : public ::testing::Test {
 protected:
  ServerlessTest()
      : cluster_(&sim_, DefaultChassisSpec(), Snapdragon865Spec()) {
    cluster_.PowerOnAll(nullptr);
    const Status status = sim_.RunFor(Duration::Seconds(26));
    SOC_CHECK(status.ok());
  }

  FunctionSpec Fn(const std::string& name) {
    FunctionSpec spec;
    spec.name = name;
    spec.memory_mb = 256.0;
    spec.exec_median = Duration::MillisF(50.0);
    spec.exec_sigma = 0.0;  // Deterministic for latency assertions.
    spec.cpu_util = 0.2;
    spec.cold_start = Duration::MillisF(900.0);
    return spec;
  }

  Simulator sim_{61};
  SocCluster cluster_;
};

TEST_F(ServerlessTest, RegisterValidation) {
  ServerlessPlatform platform(&sim_, &cluster_, ServerlessConfig{});
  ASSERT_TRUE(platform.RegisterFunction(Fn("a")).ok());
  EXPECT_EQ(platform.RegisterFunction(Fn("a")).code(),
            StatusCode::kAlreadyExists);
  FunctionSpec bad = Fn("bad");
  bad.memory_mb = -1.0;
  EXPECT_EQ(platform.RegisterFunction(bad).code(),
            StatusCode::kInvalidArgument);
  FunctionSpec huge = Fn("huge");
  huge.memory_mb = 1e6;
  EXPECT_EQ(platform.RegisterFunction(huge).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ServerlessTest, InvokeUnknownFunctionFails) {
  ServerlessPlatform platform(&sim_, &cluster_, ServerlessConfig{});
  EXPECT_EQ(platform.Invoke("ghost", nullptr).code(), StatusCode::kNotFound);
}

TEST_F(ServerlessTest, FirstInvocationIsCold) {
  ServerlessPlatform platform(&sim_, &cluster_, ServerlessConfig{});
  ASSERT_TRUE(platform.RegisterFunction(Fn("a")).ok());
  bool done = false;
  ASSERT_TRUE(platform.Invoke("a", [&] { done = true; }).ok());
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(platform.stats().invocations, 1);
  EXPECT_EQ(platform.stats().cold_starts, 1);
  // Cold start (900 ms) + exec (50 ms).
  EXPECT_NEAR(platform.stats().latency_ms.Max(), 950.0, 1.0);
}

TEST_F(ServerlessTest, WarmReuseAvoidsColdStart) {
  ServerlessPlatform platform(&sim_, &cluster_, ServerlessConfig{});
  ASSERT_TRUE(platform.RegisterFunction(Fn("a")).ok());
  ASSERT_TRUE(platform.Invoke("a", nullptr).ok());
  // Run past completion but inside the keep-alive window.
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(2)).ok());
  EXPECT_EQ(platform.WarmInstanceCount("a"), 1);
  ASSERT_TRUE(platform.Invoke("a", nullptr).ok());
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(2)).ok());
  EXPECT_EQ(platform.stats().invocations, 2);
  EXPECT_EQ(platform.stats().cold_starts, 1);
  // Warm path latency = exec only.
  EXPECT_NEAR(platform.stats().latency_ms.Min(), 50.0, 1.0);
}

TEST_F(ServerlessTest, KeepAliveEvictsIdleInstances) {
  ServerlessConfig config;
  config.keep_alive = Duration::Minutes(5);
  ServerlessPlatform platform(&sim_, &cluster_, config);
  ASSERT_TRUE(platform.RegisterFunction(Fn("a")).ok());
  ASSERT_TRUE(platform.Invoke("a", nullptr).ok());
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(3)).ok());
  EXPECT_EQ(platform.InstanceCount("a"), 1);
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(5)).ok());
  EXPECT_EQ(platform.InstanceCount("a"), 0);
  // Memory released everywhere.
  for (int i = 0; i < cluster_.num_socs(); ++i) {
    EXPECT_EQ(platform.SocMemoryMb(i), 0.0);
  }
}

TEST_F(ServerlessTest, ZeroKeepAliveEvictsImmediately) {
  ServerlessConfig config;
  config.keep_alive = Duration::Zero();
  ServerlessPlatform platform(&sim_, &cluster_, config);
  ASSERT_TRUE(platform.RegisterFunction(Fn("a")).ok());
  ASSERT_TRUE(platform.Invoke("a", nullptr).ok());
  sim_.Run();
  EXPECT_EQ(platform.InstanceCount("a"), 0);
  // Every invocation is cold.
  ASSERT_TRUE(platform.Invoke("a", nullptr).ok());
  sim_.Run();
  EXPECT_EQ(platform.stats().cold_starts, 2);
}

TEST_F(ServerlessTest, ConcurrentInvocationsSpawnInstances) {
  ServerlessPlatform platform(&sim_, &cluster_, ServerlessConfig{});
  ASSERT_TRUE(platform.RegisterFunction(Fn("a")).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(platform.Invoke("a", nullptr).ok());
  }
  // All ten ran concurrently -> ten cold instances.
  EXPECT_EQ(platform.InstanceCount("a"), 10);
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(2)).ok());
  EXPECT_EQ(platform.stats().cold_starts, 10);
  EXPECT_EQ(platform.WarmInstanceCount("a"), 10);
}

TEST_F(ServerlessTest, MemoryExhaustionShedsInvocations) {
  ServerlessPlatform platform(&sim_, &cluster_, ServerlessConfig{});
  ASSERT_TRUE(platform.RegisterFunction(Fn("a")).ok());
  // The 10240 MB per-SoC budget holds exactly forty 256 MB instances.
  const int capacity = 60 * 40;
  for (int i = 0; i < capacity + 10; ++i) {
    ASSERT_TRUE(platform.Invoke("a", nullptr).ok());
  }
  EXPECT_EQ(platform.stats().rejected, 10);
  EXPECT_EQ(platform.InstanceCount("a"), capacity);
  sim_.Run();
}

TEST_F(ServerlessTest, ExecutionDrivesSocPower) {
  ServerlessPlatform platform(&sim_, &cluster_, ServerlessConfig{});
  ASSERT_TRUE(platform.RegisterFunction(Fn("a")).ok());
  const double idle = cluster_.CurrentPower().watts();
  ASSERT_TRUE(platform.Invoke("a", nullptr).ok());
  ASSERT_TRUE(sim_.RunFor(Duration::MillisF(910.0)).ok());  // Mid-exec.
  EXPECT_GT(cluster_.CurrentPower().watts(), idle + 1.0);
  sim_.Run();
  EXPECT_NEAR(cluster_.CurrentPower().watts(), idle, 1e-6);
}

TEST_F(ServerlessTest, WorkloadDriverEndToEnd) {
  ServerlessPlatform platform(&sim_, &cluster_, ServerlessConfig{});
  ServerlessWorkload workload(&sim_, &platform, /*num_functions=*/20,
                              /*total_rate_per_s=*/100.0, /*seed=*/5);
  ASSERT_TRUE(workload.Start(Duration::Seconds(60)).ok());
  sim_.Run();
  EXPECT_NEAR(static_cast<double>(workload.generated()), 6000.0, 400.0);
  EXPECT_EQ(platform.stats().invocations, workload.generated());
  // With a 10-minute keep-alive, warm reuse dominates.
  EXPECT_LT(platform.stats().ColdStartRate(), 0.10);
  EXPECT_EQ(platform.stats().rejected, 0);
}

TEST_F(ServerlessTest, ColdStartRateFallsWithKeepAlive) {
  double previous_rate = 1.1;
  for (Duration keep_alive : {Duration::Zero(), Duration::Seconds(10),
                              Duration::Minutes(10)}) {
    Simulator sim(62);
    SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
    cluster.PowerOnAll(nullptr);
    ASSERT_TRUE(sim.RunFor(Duration::Seconds(26)).ok());
    ServerlessConfig config;
    config.keep_alive = keep_alive;
    ServerlessPlatform platform(&sim, &cluster, config);
    ServerlessWorkload workload(&sim, &platform, 20, 50.0, 5);
    ASSERT_TRUE(workload.Start(Duration::Seconds(60)).ok());
    sim.Run();
    EXPECT_LT(platform.stats().ColdStartRate(), previous_rate);
    previous_rate = platform.stats().ColdStartRate();
  }
}

TEST_F(ServerlessTest, BreakerClosesOnceQueuePressureClears) {
  ServerlessPlatform platform(&sim_, &cluster_, ServerlessConfig{});
  ASSERT_TRUE(platform.RegisterFunction(Fn("a")).ok());
  CircuitBreaker breaker(&sim_, "serverless");
  platform.SetBreaker(&breaker);
  // A cold-start storm under deferral: 256 invocations fill the deferral
  // queue, the other 38 overflow it, and the queue-full drops open the
  // breaker.
  platform.SetDeferColdStarts(true);
  for (int i = 0; i < 256 + 38; ++i) {
    ASSERT_TRUE(platform.Invoke("a", nullptr).ok());
  }
  ASSERT_EQ(platform.deferred_pending(), 256);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  platform.SetDeferColdStarts(false);
  ASSERT_TRUE(
      sim_.RunFor(CircuitBreaker::kOpenDuration + Duration::Seconds(1)).ok());
  // Healthy traffic afterwards: the half-open probes succeed, the breaker
  // closes, and nothing more is shed.
  int succeeded = 0;
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(platform.Invoke("a", [&succeeded] { ++succeeded; }).ok());
    ASSERT_TRUE(sim_.RunFor(Duration::Seconds(1)).ok());
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(succeeded, 60);
}

}  // namespace
}  // namespace soccluster
