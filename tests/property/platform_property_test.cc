// Property tests for the platform layer: orchestrator accounting under
// random operation sequences, collaborative-inference invariants across
// (model, N, mode), and end-to-end cluster energy conservation.

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <string>

#include "src/base/rng.h"
#include "src/core/orchestrator.h"
#include "src/workload/dl/collab.h"

namespace soccluster {
namespace {

// ---------- Orchestrator fuzz ----------

class OrchestratorProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OrchestratorProperty, RandomScalingKeepsAccountingExact) {
  Simulator sim(GetParam());
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(26)).ok());
  Orchestrator orchestrator(&sim, &cluster, PlacementPolicy::kSpread);
  Rng rng(GetParam() ^ 0xdead);

  std::map<std::string, ReplicaDemand> demands;
  std::map<std::string, int> desired;
  for (int w = 0; w < 5; ++w) {
    const std::string name = "w" + std::to_string(w);
    ReplicaDemand demand;
    demand.cpu_util = rng.Uniform(0.05, 0.4);
    demand.memory_gb = rng.Uniform(0.5, 4.0);
    ASSERT_TRUE(orchestrator.RegisterWorkload(name, demand).ok());
    demands[name] = demand;
    desired[name] = 0;
  }
  for (int op = 0; op < 60; ++op) {
    const std::string name = "w" + std::to_string(rng.UniformInt(0, 4));
    const int replicas = static_cast<int>(rng.UniformInt(0, 40));
    const Status status = orchestrator.ScaleTo(name, replicas);
    if (status.ok()) {
      desired[name] = replicas;
    } else {
      // Atomic failure: the old size must be preserved.
      EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
      auto got = orchestrator.GetStatus(name);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got->desired_replicas, desired[name]);
    }
  }
  // Cluster-wide CPU accounting equals the sum of placed demands exactly.
  double expected_util = 0.0;
  int expected_total = 0;
  for (const auto& [name, count] : desired) {
    expected_util += demands[name].cpu_util * count;
    expected_total += count;
  }
  double actual_util = 0.0;
  for (int i = 0; i < cluster.num_socs(); ++i) {
    actual_util += cluster.soc(i).cpu_util();
  }
  EXPECT_NEAR(actual_util, expected_util, 1e-6);
  EXPECT_EQ(orchestrator.TotalReplicas(), expected_total);
  // Tearing everything down releases every resource.
  for (const auto& [name, count] : desired) {
    ASSERT_TRUE(orchestrator.ScaleTo(name, 0).ok());
  }
  for (int i = 0; i < cluster.num_socs(); ++i) {
    EXPECT_NEAR(cluster.soc(i).cpu_util(), 0.0, 1e-9);
  }
}

TEST_P(OrchestratorProperty, FailuresNeverLeakUtilization) {
  Simulator sim(GetParam());
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(26)).ok());
  Orchestrator orchestrator(&sim, &cluster, PlacementPolicy::kPack);
  Rng rng(GetParam() ^ 0xfa11);
  ASSERT_TRUE(orchestrator.RegisterWorkload("svc", {0.3, 1.0, 0.0, 0.0}).ok());
  ASSERT_TRUE(orchestrator.ScaleTo("svc", 30).ok());
  for (int round = 0; round < 10; ++round) {
    const int victim = static_cast<int>(rng.UniformInt(0, 59));
    if (cluster.soc(victim).state() == SocPowerState::kFailed) {
      continue;
    }
    cluster.soc(victim).Fail();
    orchestrator.OnSocFailure(victim);
  }
  auto status = orchestrator.GetStatus("svc");
  ASSERT_TRUE(status.ok());
  // Utilization on usable SoCs must equal surviving replicas exactly.
  double actual_util = 0.0;
  for (int i = 0; i < cluster.num_socs(); ++i) {
    if (cluster.soc(i).IsUsable()) {
      actual_util += cluster.soc(i).cpu_util();
    }
  }
  EXPECT_NEAR(actual_util, 0.3 * status->running_replicas, 1e-6);
  EXPECT_EQ(status->running_replicas, status->desired_replicas);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrchestratorProperty,
                         ::testing::Values(7u, 14u, 21u, 28u, 35u, 42u));

// ---------- Collaborative inference sweep ----------

struct CollabCase {
  DnnModel model;
  int num_socs;
  bool pipelined;
};

std::string CollabCaseName(const ::testing::TestParamInfo<CollabCase>& info) {
  std::string name = std::string(DnnModelName(info.param.model)) + "_n" +
                     std::to_string(info.param.num_socs) +
                     (info.param.pipelined ? "_pipe" : "_seq");
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return name;
}

std::vector<CollabCase> CollabCases() {
  std::vector<CollabCase> cases;
  for (DnnModel model : {DnnModel::kResNet50, DnnModel::kResNet152}) {
    for (int socs = 1; socs <= 5; ++socs) {
      for (bool pipelined : {false, true}) {
        cases.push_back({model, socs, pipelined});
      }
    }
  }
  return cases;
}

class CollabInvariants : public ::testing::TestWithParam<CollabCase> {};

TEST_P(CollabInvariants, BreakdownIsConsistent) {
  const CollabCase& c = GetParam();
  Simulator sim(303);
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(26)).ok());
  CollaborativeInference collab(&sim, &cluster, c.model, c.num_socs,
                                c.pipelined);
  CollabResult result;
  bool done = false;
  collab.Run([&](const CollabResult& r) {
    result = r;
    done = true;
  });
  sim.Run();
  ASSERT_TRUE(done);
  // Total >= compute; comm = total - compute >= 0 (zero for one SoC).
  EXPECT_GE(result.total.nanos(), result.compute.nanos());
  if (c.num_socs == 1) {
    EXPECT_EQ(result.comm.nanos(), 0);
  } else {
    EXPECT_GT(result.comm.nanos(), 0);
  }
  // The compute term matches the partitioning formula exactly.
  EXPECT_NEAR(result.compute.ToMillis(),
              collab.TotalCompute().ToMillis(), 0.01);
  // Pipelining never loses to sequential.
  if (c.pipelined && c.num_socs > 1) {
    CollaborativeInference sequential(&sim, &cluster, c.model, c.num_socs,
                                      false);
    CollabResult seq_result;
    sequential.Run([&](const CollabResult& r) { seq_result = r; });
    sim.Run();
    EXPECT_LE(result.total.nanos(), seq_result.total.nanos());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CollabInvariants,
                         ::testing::ValuesIn(CollabCases()), CollabCaseName);

}  // namespace
}  // namespace soccluster
