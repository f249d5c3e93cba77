// Tests for the unified placement layer (src/sched): policy selection,
// multi-resource capacity accounting, release-on-evict, the lowest-key pick
// against a brute-force reference, and the regression that no service ever
// places onto a failed SoC.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "src/base/rng.h"
#include "src/cluster/cluster.h"
#include "src/core/orchestrator.h"
#include "src/sched/capacity.h"
#include "src/sched/placer.h"
#include "src/trace/gaming_trace.h"
#include "src/workload/serverless/serverless.h"

namespace soccluster {
namespace {

// A one-PCB cluster keeps the arithmetic small enough to check by hand.
ClusterChassisSpec SmallChassis() {
  ClusterChassisSpec chassis = DefaultChassisSpec();
  chassis.num_socs = 5;
  chassis.num_pcbs = 1;
  chassis.socs_per_pcb = 5;
  return chassis;
}

class PlacerTest : public ::testing::Test {
 protected:
  PlacerTest()
      : sim_(11), cluster_(&sim_, SmallChassis(), Snapdragon865Spec()) {
    cluster_.PowerOnAll(nullptr);
    SOC_CHECK(sim_.RunFor(Duration::Seconds(30)).ok());
  }

  static Placer::Options PolicyOptions(PlacementPolicy policy) {
    Placer::Options options;
    options.policy = policy;
    return options;
  }

  Simulator sim_;
  SocCluster cluster_;
};

TEST_F(PlacerTest, SpreadPicksLeastLoadedWithLowestIndexTieBreak) {
  SocCapacityView view(&cluster_);
  Placer placer(&sim_, &view, PolicyOptions(PlacementPolicy::kSpread));
  PlacementDemand demand;
  demand.cpu_util = 0.1;
  // All empty: the tie breaks to SoC 0.
  EXPECT_EQ(placer.Pick(demand), 0);
  view.Reserve(0, demand);
  // Now 1..4 tie at zero load; lowest index wins again.
  EXPECT_EQ(placer.Pick(demand), 1);
  ASSERT_TRUE(cluster_.soc(3).AddCpuUtil(0.05).ok());
  // 1, 2, 4 tie at zero; 3 carries load.
  EXPECT_EQ(placer.Pick(demand), 1);
}

TEST_F(PlacerTest, PackPicksMostLoadedFeasible) {
  SocCapacityView view(&cluster_);
  Placer placer(&sim_, &view, PolicyOptions(PlacementPolicy::kPack));
  PlacementDemand demand;
  demand.cpu_util = 0.2;
  ASSERT_TRUE(cluster_.soc(2).AddCpuUtil(0.5).ok());
  ASSERT_TRUE(cluster_.soc(4).AddCpuUtil(0.9).ok());
  // SoC 4 is fullest but lacks headroom for 0.2; SoC 2 is next.
  EXPECT_EQ(placer.Pick(demand), 2);
}

TEST_F(PlacerTest, BestFitMaximizesDominantResourceNotWeightedLoad) {
  SocCapacityView view(&cluster_);
  Placer placer(&sim_, &view, PolicyOptions(PlacementPolicy::kBestFit));
  PlacementDemand demand;
  demand.gpu_util = 0.3;
  ASSERT_TRUE(cluster_.soc(1).SetGpuUtil(0.5).ok());
  ASSERT_TRUE(cluster_.soc(2).AddCpuUtil(0.9).ok());
  // Post-placement GPU on SoC 1 is 0.8; on SoC 2 only 0.3 (its CPU load is
  // irrelevant to a GPU demand). Best-fit fills SoC 1; a CPU-weighted pack
  // would have chosen SoC 2.
  EXPECT_EQ(placer.Pick(demand), 1);
}

TEST_F(PlacerTest, BestFitTieBreaksToLowestIndex) {
  SocCapacityView view(&cluster_);
  Placer placer(&sim_, &view, PolicyOptions(PlacementPolicy::kBestFit));
  PlacementDemand demand;
  demand.cpu_util = 0.25;
  EXPECT_EQ(placer.Pick(demand), 0);
}

TEST_F(PlacerTest, RandomOfKIsDeterministicPerSeedAndAlwaysFeasible) {
  SocCapacityView view_a(&cluster_);
  SocCapacityView view_b(&cluster_);
  Placer::Options options;
  options.policy = PlacementPolicy::kRandomOfK;
  Placer a(&sim_, &view_a, options);
  Placer b(&sim_, &view_b, options);
  PlacementDemand demand;
  demand.cpu_util = 0.05;
  std::vector<int> picks_a;
  std::vector<int> picks_b;
  for (int i = 0; i < 24; ++i) {
    const int pa = a.Pick(demand);
    const int pb = b.Pick(demand);
    ASSERT_GE(pa, 0);
    ASSERT_TRUE(view_a.Fits(pa, demand));
    view_a.Reserve(pa, demand);
    ASSERT_GE(pb, 0);
    view_b.Reserve(pb, demand);
    picks_a.push_back(pa);
    picks_b.push_back(pb);
  }
  // Same seed, same draw sequence, identical placements.
  EXPECT_EQ(picks_a, picks_b);
}

TEST_F(PlacerTest, CapacityViewReservesAndReleasesEveryResource) {
  SocCapacityView::Options view_options;
  view_options.slot_capacity = 2;
  SocCapacityView view(&cluster_, view_options);
  PlacementDemand demand;
  demand.cpu_util = 0.3;
  demand.gpu_util = 0.4;
  demand.dsp_util = 0.2;
  demand.memory_gb = 5.0;
  demand.codec_sessions = 2;
  demand.codec_pixel_rate = 2.0e6;
  demand.slots = 1;
  ASSERT_TRUE(view.Fits(1, demand));
  const Reservation reservation = view.Reserve(1, demand);
  EXPECT_EQ(reservation.soc_index, 1);
  EXPECT_EQ(reservation.fail_epoch, cluster_.soc(1).fail_count());
  EXPECT_DOUBLE_EQ(cluster_.soc(1).cpu_util(), 0.3);
  EXPECT_DOUBLE_EQ(cluster_.soc(1).gpu_util(), 0.4);
  EXPECT_DOUBLE_EQ(cluster_.soc(1).dsp_util(), 0.2);
  EXPECT_EQ(cluster_.soc(1).codec_sessions(), 2);
  EXPECT_DOUBLE_EQ(view.MemoryUsedGb(1), 5.0);
  EXPECT_EQ(view.SlotsUsed(1), 1);
  view.Release(reservation);
  EXPECT_DOUBLE_EQ(cluster_.soc(1).cpu_util(), 0.0);
  EXPECT_DOUBLE_EQ(cluster_.soc(1).gpu_util(), 0.0);
  EXPECT_DOUBLE_EQ(cluster_.soc(1).dsp_util(), 0.0);
  EXPECT_EQ(cluster_.soc(1).codec_sessions(), 0);
  EXPECT_DOUBLE_EQ(view.MemoryUsedGb(1), 0.0);
  EXPECT_EQ(view.SlotsUsed(1), 0);
}

TEST_F(PlacerTest, FitsRejectsEachExhaustedResource) {
  SocCapacityView::Options view_options;
  view_options.slot_capacity = 1;
  SocCapacityView view(&cluster_, view_options);
  const SocSpec& spec = cluster_.soc(0).spec();

  PlacementDemand cpu;
  cpu.cpu_util = 1.1;
  EXPECT_FALSE(view.Fits(0, cpu));

  PlacementDemand gpu;
  gpu.gpu_util = 0.6;
  ASSERT_TRUE(cluster_.soc(0).SetGpuUtil(0.5).ok());
  EXPECT_FALSE(view.Fits(0, gpu));

  PlacementDemand memory;
  memory.memory_gb = static_cast<double>(spec.memory_gb) + 1.0;
  EXPECT_FALSE(view.Fits(0, memory));

  PlacementDemand sessions;
  sessions.codec_sessions = spec.max_codec_sessions + 1;
  EXPECT_FALSE(view.Fits(0, sessions));

  PlacementDemand slots;
  slots.slots = 1;
  ASSERT_TRUE(view.Fits(0, slots));
  view.Reserve(0, slots);
  EXPECT_FALSE(view.Fits(0, slots));

  // A failed SoC fits nothing, however small the demand.
  cluster_.soc(1).Fail();
  PlacementDemand tiny;
  tiny.cpu_util = 0.01;
  EXPECT_FALSE(view.IsPlaceable(1));
  EXPECT_FALSE(view.Fits(1, tiny));
}

TEST_F(PlacerTest, ReleaseAfterFailureKeepsLedgersConsistent) {
  SocCapacityView::Options view_options;
  view_options.slot_capacity = 2;
  SocCapacityView view(&cluster_, view_options);
  PlacementDemand demand;
  demand.cpu_util = 0.4;
  demand.memory_gb = 3.0;
  demand.slots = 1;
  const Reservation reservation = view.Reserve(2, demand);
  cluster_.soc(2).Fail();
  // SoC-side charges vanished with Fail(); ledgered memory and slots must
  // still release so the slot is clean after repair.
  view.Release(reservation);
  EXPECT_DOUBLE_EQ(view.MemoryUsedGb(2), 0.0);
  EXPECT_EQ(view.SlotsUsed(2), 0);
}

using CapacityViewTest = PlacerTest;

// A charge wiped by Fail() must not be subtracted again after the SoC
// reboots: the CPU/GPU/DSP/codec now on the SoC belongs to later work.
TEST_F(CapacityViewTest, ReleaseSkipsChargesWipedByFailure) {
  SocCapacityView::Options view_options;
  view_options.slot_capacity = 2;
  SocCapacityView view(&cluster_, view_options);
  PlacementDemand a;
  a.cpu_util = 0.3;
  a.gpu_util = 0.4;
  a.dsp_util = 0.2;
  a.codec_sessions = 1;
  a.codec_pixel_rate = 1.0e6;
  a.memory_gb = 2.0;
  a.slots = 1;
  const Reservation first = view.Reserve(0, a);
  SocModel& soc = cluster_.soc(0);
  soc.Fail();
  soc.Repair();
  ASSERT_TRUE(soc.PowerOn(Duration::Seconds(20), nullptr).ok());
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(25)).ok());
  ASSERT_TRUE(soc.IsUsable());
  EXPECT_TRUE(view.FailedSince(first));
  PlacementDemand b = a;
  b.cpu_util = 0.2;
  b.memory_gb = 1.0;
  const Reservation second = view.Reserve(0, b);
  EXPECT_FALSE(view.Release(first));
  // The second charge is untouched; the first's ledgers came back.
  EXPECT_DOUBLE_EQ(soc.cpu_util(), 0.2);
  EXPECT_DOUBLE_EQ(soc.gpu_util(), 0.4);
  EXPECT_DOUBLE_EQ(soc.dsp_util(), 0.2);
  EXPECT_EQ(soc.codec_sessions(), 1);
  EXPECT_DOUBLE_EQ(view.MemoryUsedGb(0), 1.0);
  EXPECT_EQ(view.SlotsUsed(0), 1);
  EXPECT_FALSE(view.FailedSince(second));
  EXPECT_TRUE(view.Release(second));
  EXPECT_DOUBLE_EQ(soc.cpu_util(), 0.0);
  EXPECT_DOUBLE_EQ(soc.gpu_util(), 0.0);
  EXPECT_DOUBLE_EQ(soc.dsp_util(), 0.0);
  EXPECT_EQ(soc.codec_sessions(), 0);
  EXPECT_DOUBLE_EQ(view.MemoryUsedGb(0), 0.0);
  EXPECT_EQ(view.SlotsUsed(0), 0);
}

TEST_F(PlacerTest, FilterExcludesCandidates) {
  SocCapacityView view(&cluster_);
  Placer placer(&sim_, &view, PolicyOptions(PlacementPolicy::kSpread));
  PlacementDemand demand;
  demand.cpu_util = 0.1;
  EXPECT_EQ(placer.Pick(demand, [](int i) { return i >= 3; }), 3);
}

TEST_F(PlacerTest, ActiveSetLimitsIndexedPicksAndTheirChecks) {
  // The serving fleet's shape: one engine slot per SoC, kSpread by slot
  // load. SoCs outside the view's active prefix leave the index, so a pick
  // on a full active set tests nothing.
  SocCapacityView view(&cluster_, {.slot_capacity = 1});
  Placer::Options options = PolicyOptions(PlacementPolicy::kSpread);
  options.load.cpu_weight = 0.0;
  options.load.slot_weight = 1.0;
  Placer placer(&sim_, &view, options);
  Counter* checked = sim_.metrics().GetCounter(
      "sched.candidates_checked", {{"policy", "spread"}});
  const PlacementDemand slot{.slots = 1};
  view.SetActiveCount(2);
  EXPECT_FALSE(view.IsPlaceable(2));
  EXPECT_FALSE(view.Fits(4, slot));
  ASSERT_EQ(placer.Pick(slot), 0);
  view.Reserve(0, slot);
  ASSERT_EQ(placer.Pick(slot), 1);
  view.Reserve(1, slot);
  const int64_t before = checked->value();
  EXPECT_EQ(placer.Pick(slot), -1);
  EXPECT_EQ(checked->value(), before);
  // Growing the set announces the SoCs that joined; shrinking it keeps
  // the placed work, and only the remaining active SoCs are picked.
  view.SetActiveCount(4);
  EXPECT_EQ(placer.Pick(slot), 2);
  view.SetActiveCount(1);
  EXPECT_EQ(placer.Pick(slot), -1);
  EXPECT_EQ(view.SlotsUsed(1), 1);
  view.SetActiveCount(5);
  EXPECT_EQ(placer.Pick(slot), 2);
}

TEST_F(PlacerTest, PublishesPlacementMetricsLabeledByPolicy) {
  SocCapacityView view(&cluster_);
  Placer placer(&sim_, &view, PolicyOptions(PlacementPolicy::kPack));
  PlacementDemand demand;
  demand.cpu_util = 0.5;
  EXPECT_GE(placer.Pick(demand), 0);
  demand.cpu_util = 2.0;  // Impossible: rejection.
  EXPECT_EQ(placer.Pick(demand), -1);
  const MetricLabels labels{{"policy", "pack"}};
  EXPECT_EQ(sim_.metrics().GetCounter("sched.placements", labels)->value(), 1);
  EXPECT_EQ(sim_.metrics().GetCounter("sched.rejections", labels)->value(), 1);
  EXPECT_GT(
      sim_.metrics().GetCounter("sched.score_evaluations", labels)->value(),
      0);
}

// Post-placement utilization of the demand's most-stressed resource,
// written out independently of Placer for the reference below.
double ReferenceDominantUtil(const SocCapacityView& view, int i,
                             const PlacementDemand& d) {
  const SocModel& soc = view.cluster().soc(i);
  double dominant = 0.0;
  if (d.cpu_util > 0.0) {
    dominant = std::max(dominant, soc.cpu_util() + d.cpu_util);
  }
  if (d.gpu_util > 0.0) {
    dominant = std::max(dominant, soc.gpu_util() + d.gpu_util);
  }
  if (d.memory_gb > 0.0) {
    dominant = std::max(dominant, (view.MemoryUsedGb(i) + d.memory_gb) /
                                      view.MemoryCapacityGb(i));
  }
  if (d.slots > 0) {
    dominant = std::max(dominant,
                        static_cast<double>(view.SlotsUsed(i) + d.slots) /
                            view.slot_capacity());
  }
  return dominant;
}

// kSpread, kPack and kBestFit against a brute-force reference: among SoCs
// that pass both the filter and Fits, the lowest key (Load, -Load,
// -dominant utilization) wins and ties go to the lowest index. A kBestFit
// scan scores every feasible SoC; a kSpread/kPack pick walks its index in
// key order and scores at least the winner and at most every feasible SoC.
// Quarter-step demands make exact ties common, so the pack, best-fit and
// penalty tie-breaks are exercised.
TEST_F(PlacerTest, LowestKeyScanMatchesBruteForceReference) {
  Rng rng(2024);
  const int n = cluster_.num_socs();
  SocCapacityView::Options view_options;
  view_options.slot_capacity = 4;
  int picks_checked = 0;
  for (const PlacementPolicy policy :
       {PlacementPolicy::kSpread, PlacementPolicy::kPack,
        PlacementPolicy::kBestFit}) {
    const MetricLabels labels{{"policy", PlacementPolicyName(policy)}};
    Counter* evaluations =
        sim_.metrics().GetCounter("sched.score_evaluations", labels);
    for (int round = 0; round < 300; ++round) {
      SocCapacityView view(&cluster_, view_options);
      Placer::Options options = PolicyOptions(policy);
      options.load.gpu_weight = 1.0;
      options.load.memory_weight_per_gb = 0.125;
      options.load.slot_weight = 0.25;
      Placer placer(&sim_, &view, options);
      std::vector<Reservation> held;
      for (int i = 0; i < n; ++i) {
        PlacementDemand h;
        h.cpu_util = 0.25 * static_cast<double>(rng.UniformInt(0, 4));
        h.gpu_util = 0.25 * static_cast<double>(rng.UniformInt(0, 2));
        h.memory_gb = static_cast<double>(rng.UniformInt(0, 8));
        h.slots = static_cast<int>(rng.UniformInt(0, 4));
        held.push_back(view.Reserve(i, h));
      }
      std::vector<bool> allowed(static_cast<size_t>(n), true);
      const bool with_filter = round % 2 == 1;
      if (with_filter) {
        for (int i = 0; i < n; ++i) {
          allowed[static_cast<size_t>(i)] = rng.UniformInt(0, 3) != 0;
        }
      }
      std::vector<double> penalty(static_cast<size_t>(n), 0.0);
      if (round % 4 >= 2) {
        for (int i = 0; i < n; ++i) {
          penalty[static_cast<size_t>(i)] =
              0.25 * static_cast<double>(rng.UniformInt(0, 2));
        }
        placer.set_penalty(
            [&penalty](int i) { return penalty[static_cast<size_t>(i)]; });
      }
      PlacementDemand demand;
      demand.cpu_util = 0.25 * static_cast<double>(rng.UniformInt(0, 2));
      demand.gpu_util = 0.25 * static_cast<double>(rng.UniformInt(0, 1));
      demand.memory_gb = static_cast<double>(rng.UniformInt(0, 2));
      demand.slots = static_cast<int>(rng.UniformInt(0, 1));

      int expected = -1;
      double best_key = std::numeric_limits<double>::infinity();
      int64_t feasible = 0;
      for (int i = 0; i < n; ++i) {
        if (!allowed[static_cast<size_t>(i)] || !view.Fits(i, demand)) {
          continue;
        }
        ++feasible;
        double key = placer.Load(i);
        if (policy == PlacementPolicy::kPack) {
          key = -key;
        } else if (policy == PlacementPolicy::kBestFit) {
          key = -ReferenceDominantUtil(view, i, demand);
        }
        if (expected < 0 || key < best_key) {
          best_key = key;
          expected = i;
        }
      }
      const int64_t evaluations_before = evaluations->value();
      const int picked =
          with_filter ? placer.Pick(demand,
                                    [&allowed](int i) {
                                      return allowed[static_cast<size_t>(i)];
                                    })
                      : placer.Pick(demand);
      EXPECT_EQ(picked, expected)
          << PlacementPolicyName(policy) << " round " << round;
      const int64_t scored = evaluations->value() - evaluations_before;
      if (policy == PlacementPolicy::kBestFit || expected < 0) {
        EXPECT_EQ(scored, feasible);
      } else {
        EXPECT_GE(scored, 1);
        EXPECT_LE(scored, feasible);
      }
      ++picks_checked;
      for (const Reservation& h : held) {
        view.Release(h);
      }
    }
  }
  EXPECT_EQ(picks_checked, 900);
}

TEST_F(PlacerTest, ReleaseOnEvictFreesCapacityForNewPlacements) {
  Orchestrator orchestrator(&sim_, &cluster_, PlacementPolicy::kSpread);
  ReplicaDemand demand;
  demand.cpu_util = 0.9;
  ASSERT_TRUE(orchestrator.RegisterWorkload("big", demand).ok());
  const int full = cluster_.num_socs();
  ASSERT_TRUE(orchestrator.ScaleTo("big", full).ok());
  // Every SoC is full; one more replica cannot fit.
  EXPECT_EQ(orchestrator.ScaleTo("big", full + 1).code(),
            StatusCode::kResourceExhausted);
  // Evicting releases through the same capacity view, so the freed
  // capacity is immediately placeable again.
  ASSERT_TRUE(orchestrator.ScaleTo("big", 0).ok());
  ASSERT_TRUE(orchestrator.ScaleTo("big", full).ok());
  EXPECT_EQ(orchestrator.TotalReplicas(), full);
}

// Regression for the fault taxonomy: a failed SoC must be invisible to
// every service's placement path, with no service-local usability checks.
TEST(PlacementFaultRegressionTest, GamingAndServerlessNeverPlaceOnFailedSoc) {
  Simulator sim(23);
  SocCluster cluster(&sim, SmallChassis(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(30)).ok());
  const int failed = 2;
  cluster.soc(failed).Fail();

  GamingWorkload gaming(&sim, &cluster, GamingWorkloadConfig{});
  gaming.Start(Duration::Hours(6));

  ServerlessPlatform platform(&sim, &cluster, ServerlessConfig{});
  FunctionSpec fn;
  fn.name = "probe";
  fn.memory_mb = 512.0;
  ASSERT_TRUE(platform.RegisterFunction(fn).ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(platform.Invoke("probe", nullptr).ok());
  }
  ASSERT_TRUE(sim.RunFor(Duration::Hours(6)).ok());

  ASSERT_GT(gaming.sessions_started(), 0);
  ASSERT_GT(platform.stats().invocations, 0);
  EXPECT_EQ(platform.stats().rejected, 0) << "4 usable SoCs had memory";
  EXPECT_EQ(gaming.SessionsOnSoc(failed), 0);
  EXPECT_DOUBLE_EQ(platform.SocMemoryMb(failed), 0.0);
  for (int i = 0; i < cluster.num_socs(); ++i) {
    if (i == failed) {
      continue;
    }
    EXPECT_LE(platform.SocMemoryMb(i), ServerlessPlatform::kSocMemoryBudgetMb);
  }
}

}  // namespace
}  // namespace soccluster
