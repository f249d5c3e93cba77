// Gray-failure detection tests: the DegradationScorer's relative scoring
// (stragglers and zombies score, uniform slowness does not) and the
// GrayFailureManager's suspect/quarantine/probation state machine.

#include "src/core/graydetect.h"

#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "src/cluster/cluster.h"
#include "src/hw/specs.h"
#include "src/sched/capacity.h"

namespace soccluster {
namespace {

class DegradationScorerTest : public ::testing::Test {
 protected:
  DegradationScorerConfig SmallConfig() {
    DegradationScorerConfig config;
    config.min_samples = 5;
    return config;
  }

  // Feed `n` healthy completions at `ms` for every SoC except `skip`.
  void FeedFleet(DegradationScorer& scorer, int n, double ms, int skip = -1) {
    for (int soc = 0; soc < scorer.num_socs(); ++soc) {
      if (soc == skip) continue;
      for (int i = 0; i < n; ++i) {
        scorer.Report(soc, Duration::MillisF(ms), /*ok=*/true);
      }
    }
  }

  Simulator sim_{7};
};

TEST_F(DegradationScorerTest, StragglerScoresAgainstFleetMedian) {
  DegradationScorer scorer(&sim_, 12, SmallConfig());
  FeedFleet(scorer, 10, 100.0, /*skip=*/3);
  for (int i = 0; i < 10; ++i) {
    scorer.Report(3, Duration::MillisF(400.0), true);  // 4x the fleet.
  }
  scorer.Evaluate();
  EXPECT_DOUBLE_EQ(scorer.fleet_p99_ms(), 100.0);
  // Ratio 4.0 hits ratio_bad: instant score 1, one EWMA step at alpha 0.7.
  EXPECT_DOUBLE_EQ(scorer.Suspicion(3), 0.7);
  EXPECT_DOUBLE_EQ(scorer.Suspicion(0), 0.0);
}

TEST_F(DegradationScorerTest, ZombiePureErrorsScoreFully) {
  DegradationScorer scorer(&sim_, 12, SmallConfig());
  FeedFleet(scorer, 10, 100.0, /*skip=*/4);
  for (int i = 0; i < 10; ++i) {
    scorer.Report(4, Duration::Zero(), /*ok=*/false);  // Every attempt dies.
  }
  scorer.Evaluate();
  // No latency evidence at all, but the error channel scores alone: the
  // two channels combine by max, not by a weighted blend.
  EXPECT_DOUBLE_EQ(scorer.Suspicion(4), 0.7);
}

TEST_F(DegradationScorerTest, UniformSlownessIsNotSuspicious) {
  DegradationScorer scorer(&sim_, 12, SmallConfig());
  FeedFleet(scorer, 10, 800.0);  // Whole fleet equally slow (overload).
  scorer.Evaluate();
  for (int soc = 0; soc < scorer.num_socs(); ++soc) {
    EXPECT_DOUBLE_EQ(scorer.Suspicion(soc), 0.0) << "soc " << soc;
  }
}

TEST_F(DegradationScorerTest, ThinEvidenceIsNotJudged) {
  DegradationScorer scorer(&sim_, 12, SmallConfig());
  FeedFleet(scorer, 10, 100.0, /*skip=*/5);
  for (int i = 0; i < 3; ++i) {  // Below min_samples = 5.
    scorer.Report(5, Duration::MillisF(5000.0), true);
  }
  scorer.Evaluate();
  EXPECT_DOUBLE_EQ(scorer.Suspicion(5), 0.0);
}

TEST_F(DegradationScorerTest, SuspicionDecaysWhenEvidenceStops) {
  DegradationScorer scorer(&sim_, 12, SmallConfig());
  FeedFleet(scorer, 10, 100.0, /*skip=*/3);
  for (int i = 0; i < 10; ++i) {
    scorer.Report(3, Duration::MillisF(400.0), true);
  }
  scorer.Evaluate();
  ASSERT_DOUBLE_EQ(scorer.Suspicion(3), 0.7);
  scorer.Evaluate();  // Empty window: instant 0, EWMA decays.
  EXPECT_NEAR(scorer.Suspicion(3), 0.21, 1e-12);
  scorer.Evaluate();
  EXPECT_NEAR(scorer.Suspicion(3), 0.063, 1e-12);
  scorer.Reset(3);
  EXPECT_DOUBLE_EQ(scorer.Suspicion(3), 0.0);
}

class GrayManagerTest : public ::testing::Test {
 protected:
  void BootAll() {
    cluster_.PowerOnAll(nullptr);
    ASSERT_TRUE(sim_.RunFor(Duration::Seconds(30)).ok());
  }

  GrayFailureConfig FastConfig() {
    GrayFailureConfig config;
    config.scorer.window = Duration::Seconds(10);
    config.scorer.min_samples = 5;
    config.tick = Duration::Seconds(10);
    config.probe_interval = Duration::Seconds(5);
    config.reboot_time = Duration::Minutes(1);
    return config;
  }

  // A canary whose outcome alternates per SoC: neither a passing nor a
  // failing streak ever gets long enough to end probation, so a
  // quarantined SoC stays quarantined.
  GrayFailureManager::Prober AlternatingProber() {
    std::vector<bool> last_ok(static_cast<size_t>(cluster_.num_socs()));
    return [last_ok](int soc_index) mutable {
      const bool ok = !last_ok[static_cast<size_t>(soc_index)];
      last_ok[static_cast<size_t>(soc_index)] = ok;
      return GrayFailureManager::ProbeResult{ok, Duration::MillisF(50.0)};
    };
  }

  // Synthetic hot-path evidence: every second each of the first 12 SoCs
  // reports one completion; `bad` reports 4x latency (or errors when
  // `bad_errors`) while `feed_bad` stays true. Offset half a second so
  // feed events never tie with manager ticks.
  void StartFeed(GrayFailureManager& gray, int bad, bool bad_errors = false) {
    feed_ = std::make_unique<PeriodicTask>(
        &sim_, Duration::Seconds(1),
        [this, &gray, bad, bad_errors] {
          for (int soc = 0; soc < 12; ++soc) {
            if (soc == bad) {
              if (!feed_bad_) continue;
              if (bad_errors) {
                gray.scorer().Report(soc, Duration::Zero(), false);
              } else {
                gray.scorer().Report(soc, Duration::MillisF(400.0), true);
              }
            } else {
              gray.scorer().Report(soc, Duration::MillisF(100.0), true);
            }
          }
        },
        "test.feed");
    sim_.ScheduleAfter(Duration::MillisF(500.0), [this] { feed_->Start(); });
  }

  Simulator sim_{13};
  SocCluster cluster_{&sim_, DefaultChassisSpec(), Snapdragon865Spec()};
  std::unique_ptr<PeriodicTask> feed_;
  bool feed_bad_ = true;
};

TEST_F(GrayManagerTest, StragglerIsQuarantinedProbedAndReinstated) {
  BootAll();
  GrayFailureManager gray(&sim_, &cluster_, FastConfig());
  bool was_quarantined_on_entry = false;
  gray.set_on_quarantine([&](int soc_index) {
    EXPECT_EQ(soc_index, 3);
    was_quarantined_on_entry = cluster_.soc(3).quarantined();
    feed_bad_ = false;  // Quarantine drains the straggler's traffic.
  });
  int reinstated_soc = -1;
  gray.set_on_reinstate([&](int soc_index) { reinstated_soc = soc_index; });
  // Canary passes: the operator fixed it (or the excursion ended).
  gray.set_prober([](int) {
    return GrayFailureManager::ProbeResult{true, Duration::MillisF(50.0)};
  });
  StartFeed(gray, /*bad=*/3);
  gray.Start();
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(3)).ok());

  EXPECT_GE(gray.suspects_total(), 1);
  EXPECT_EQ(gray.quarantines_total(), 1);
  EXPECT_TRUE(was_quarantined_on_entry);
  EXPECT_EQ(gray.reinstated_total(), 1);
  EXPECT_EQ(reinstated_soc, 3);
  EXPECT_EQ(gray.state(3), GrayFailureManager::SocState::kHealthy);
  EXPECT_FALSE(cluster_.soc(3).quarantined());
  EXPECT_DOUBLE_EQ(gray.scorer().Suspicion(3), 0.0);  // Probation resets.
  EXPECT_EQ(gray.escalated_total(), 0);
}

TEST_F(GrayManagerTest, ZombieFailsProbationAndIsPowerCycled) {
  BootAll();
  GrayFailureManager gray(&sim_, &cluster_, FastConfig());
  gray.set_on_quarantine([&](int) { feed_bad_ = false; });
  int escalated_soc = -1;
  gray.set_on_escalate([&](int soc_index) { escalated_soc = soc_index; });
  cluster_.soc(4).SetZombie(true);  // Beats fine, requests fail.
  StartFeed(gray, /*bad=*/4, /*bad_errors=*/true);
  gray.Start();
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(5)).ok());

  // The default canary fails against a zombie, so probation escalates to a
  // power-cycle, which clears the wedged software state.
  EXPECT_EQ(gray.quarantines_total(), 1);
  EXPECT_EQ(gray.escalated_total(), 1);
  EXPECT_EQ(escalated_soc, 4);
  EXPECT_EQ(gray.reinstated_total(), 0);
  EXPECT_FALSE(cluster_.soc(4).zombie());
  EXPECT_FALSE(cluster_.soc(4).quarantined());
  EXPECT_TRUE(cluster_.soc(4).IsUsable());  // Back after reboot + boot.
  EXPECT_EQ(cluster_.soc(4).fail_count(), 1);
  EXPECT_EQ(gray.state(4), GrayFailureManager::SocState::kHealthy);
}

TEST_F(GrayManagerTest, QuarantineCapNeverEvacuatesTheFleet) {
  BootAll();
  GrayFailureManager gray(&sim_, &cluster_, FastConfig());
  gray.set_prober(AlternatingProber());  // Hold quarantines open.
  // Two more stragglers than the cap allows; the lowest indices fit under
  // it. The whole fleet reports, so the fleet median stays healthy.
  const int cap = static_cast<int>(GrayFailureManager::kMaxQuarantinedFraction *
                                   cluster_.num_socs());
  const int stragglers = cap + 2;
  feed_ = std::make_unique<PeriodicTask>(
      &sim_, Duration::Seconds(1),
      [this, &gray, stragglers] {
        for (int soc = 0; soc < cluster_.num_socs(); ++soc) {
          const bool bad = soc >= 1 && soc <= stragglers;
          gray.scorer().Report(soc, Duration::MillisF(bad ? 400.0 : 100.0),
                               true);
        }
      },
      "test.feed");
  sim_.ScheduleAfter(Duration::MillisF(500.0), [this] { feed_->Start(); });
  gray.Start();
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(3)).ok());

  EXPECT_EQ(gray.quarantines_total(), cap);
  EXPECT_EQ(gray.quarantined_now(), cap);
  for (int soc = 1; soc <= cap; ++soc) {
    EXPECT_EQ(gray.state(soc), GrayFailureManager::SocState::kQuarantined);
  }
  EXPECT_EQ(gray.state(cap + 1), GrayFailureManager::SocState::kSuspect);
  EXPECT_EQ(gray.state(cap + 2), GrayFailureManager::SocState::kSuspect);
  // Suspects are steered around, quarantined SoCs are excluded outright.
  EXPECT_DOUBLE_EQ(gray.PlacementPenalty(cap + 1),
                   GrayFailureManager::kSuspectPenalty);
  EXPECT_DOUBLE_EQ(gray.PlacementPenalty(1), 0.0);
  EXPECT_TRUE(cluster_.soc(1).quarantined());
}

TEST_F(GrayManagerTest, SuspectIsExoneratedWhenEvidenceClears) {
  BootAll();
  GrayFailureManager gray(&sim_, &cluster_, FastConfig());
  StartFeed(gray, /*bad=*/2);
  // Stop the excursion once the manager notices it, before a second hot
  // tick could quarantine it.
  sim_.ScheduleAfter(Duration::Seconds(15), [this] { feed_bad_ = false; });
  gray.Start();
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(3)).ok());

  EXPECT_EQ(gray.suspects_total(), 1);
  EXPECT_EQ(gray.quarantines_total(), 0);
  EXPECT_EQ(gray.state(2), GrayFailureManager::SocState::kHealthy);
  EXPECT_DOUBLE_EQ(gray.PlacementPenalty(2), 0.0);
  EXPECT_LT(gray.scorer().Suspicion(2), GrayFailureManager::kClearThreshold);
}

TEST_F(GrayManagerTest, ExternalFailureReleasesQuarantineToFailStopPath) {
  BootAll();
  GrayFailureManager gray(&sim_, &cluster_, FastConfig());
  gray.set_on_quarantine([&](int) { feed_bad_ = false; });
  gray.set_prober(AlternatingProber());  // Probation never ends.
  StartFeed(gray, /*bad=*/6);
  // While quarantined the board fails outright (injector/operator).
  sim_.ScheduleAfter(Duration::Minutes(1), [this] { cluster_.soc(6).Fail(); });
  gray.Start();
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(3)).ok());

  EXPECT_EQ(gray.quarantines_total(), 1);
  // The fail-stop path owns it now: released without a gray verdict.
  EXPECT_EQ(gray.quarantined_now(), 0);
  EXPECT_EQ(gray.state(6), GrayFailureManager::SocState::kHealthy);
  EXPECT_EQ(gray.reinstated_total(), 0);
  EXPECT_EQ(gray.escalated_total(), 0);
  EXPECT_FALSE(cluster_.soc(6).quarantined());
  EXPECT_FALSE(cluster_.soc(6).IsUsable());  // Still failed; repair is external.
}

TEST_F(GrayManagerTest, QuarantinedSocIsNotPlaceable) {
  BootAll();
  GrayFailureManager gray(&sim_, &cluster_, FastConfig());
  gray.set_on_quarantine([&](int) { feed_bad_ = false; });
  gray.set_prober([](int) {
    return GrayFailureManager::ProbeResult{false, Duration::Zero()};
  });
  StartFeed(gray, /*bad=*/5);
  gray.Start();
  ASSERT_TRUE(sim_.RunFor(Duration::Seconds(35)).ok());
  ASSERT_EQ(gray.state(5), GrayFailureManager::SocState::kQuarantined);
  SocCapacityView view(&cluster_);
  EXPECT_FALSE(view.IsPlaceable(5));
  EXPECT_TRUE(view.IsPlaceable(0));
}

TEST_F(GrayManagerTest, TickMustEqualScorerWindow) {
  // Evaluate() judges whatever accumulated since the last tick, so a tick
  // off the window would silently judge a different window.
  GrayFailureConfig config = FastConfig();
  config.tick = Duration::Seconds(15);
  EXPECT_DEATH(GrayFailureManager(&sim_, &cluster_, config),
               "tick must equal the scorer window");
}

TEST_F(GrayManagerTest, HealthyFleetNeverTripsTheDetector) {
  BootAll();
  GrayFailureManager gray(&sim_, &cluster_, FastConfig());
  feed_ = std::make_unique<PeriodicTask>(
      &sim_, Duration::Seconds(1),
      [this, &gray] {
        for (int soc = 0; soc < 12; ++soc) {
          gray.scorer().Report(soc, Duration::MillisF(100.0), true);
        }
      },
      "test.feed");
  sim_.ScheduleAfter(Duration::MillisF(500.0), [this] { feed_->Start(); });
  gray.Start();
  ASSERT_TRUE(sim_.RunFor(Duration::Minutes(10)).ok());
  EXPECT_EQ(gray.suspects_total(), 0);
  EXPECT_EQ(gray.quarantines_total(), 0);
  for (int soc = 0; soc < cluster_.num_socs(); ++soc) {
    EXPECT_EQ(gray.state(soc), GrayFailureManager::SocState::kHealthy);
  }
}

}  // namespace
}  // namespace soccluster
