// SloTracker burn-rate math and the multi-window fire/clear state machine,
// plus the SloEngine registry and its JSON timeline export.

#include "src/obs/slo.h"

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"

namespace soccluster {
namespace {

SloSpec TestSpec() {
  SloSpec spec;
  spec.name = "svc/standard";
  spec.service = "svc";
  spec.class_name = "standard";
  spec.threshold = Duration::Seconds(1);
  spec.objective = 0.99;  // 1% error budget.
  return spec;
}

SimTime At(double seconds) {
  return SimTime::Zero() + Duration::SecondsF(seconds);
}

TEST(SloTrackerTest, BurnRateIsBadFractionOverBudget) {
  SloTracker tracker(TestSpec());
  // 1% bad over the window = exactly 1.0x budget burn.
  for (int i = 0; i < 99; ++i) {
    tracker.Record(At(10.0), true);
  }
  tracker.Record(At(10.0), false);
  EXPECT_NEAR(tracker.BurnRate(At(10.0), Duration::Seconds(30)), 1.0, 1e-9);
  // 10% bad burns 10x the budget.
  SloTracker hot(TestSpec());
  for (int i = 0; i < 90; ++i) {
    hot.Record(At(10.0), true);
  }
  for (int i = 0; i < 10; ++i) {
    hot.Record(At(10.0), false);
  }
  EXPECT_NEAR(hot.BurnRate(At(10.0), Duration::Seconds(30)), 10.0, 1e-9);
  // An empty window burns nothing.
  EXPECT_DOUBLE_EQ(tracker.BurnRate(At(500.0), Duration::Seconds(30)), 0.0);
}

TEST(SloTrackerTest, FiresOnlyWhenBothWindowsBurn) {
  SloTracker tracker(TestSpec());
  // Two minutes of healthy traffic fill the slow window.
  for (int second = 0; second < 120; ++second) {
    for (int i = 0; i < 100; ++i) {
      tracker.Record(At(second), true);
    }
  }
  // A short burst of errors saturates the fast window, but the slow
  // window still holds two minutes of good traffic: no page.
  for (int i = 0; i < 200; ++i) {
    tracker.Record(At(121.0), false);
  }
  EXPECT_GE(tracker.BurnRate(At(121.0), Duration::Seconds(30)), 3.0);
  EXPECT_LT(tracker.BurnRate(At(121.0), Duration::Minutes(2)), 3.0);
  EXPECT_FALSE(tracker.firing());
  // Sustained errors push the slow window over too: now it fires.
  for (int second = 122; second < 240; ++second) {
    for (int i = 0; i < 100; ++i) {
      tracker.Record(At(second), false);
    }
  }
  EXPECT_TRUE(tracker.firing());
  ASSERT_EQ(tracker.alerts().size(), 1u);
  EXPECT_TRUE(tracker.alerts()[0].firing);
  EXPECT_GE(tracker.alerts()[0].fast_burn, 3.0);
  EXPECT_GE(tracker.alerts()[0].slow_burn, 3.0);
}

TEST(SloTrackerTest, ClearsWhenBurnSubsides) {
  SloTracker tracker(TestSpec());
  for (int second = 0; second < 120; ++second) {
    tracker.Record(At(second), false);
  }
  ASSERT_TRUE(tracker.firing());
  // Healthy traffic ages the errors out of both windows.
  for (int second = 120; second < 300; ++second) {
    tracker.Record(At(second), true);
  }
  EXPECT_FALSE(tracker.firing());
  ASSERT_EQ(tracker.alerts().size(), 2u);
  EXPECT_TRUE(tracker.alerts()[0].firing);
  EXPECT_FALSE(tracker.alerts()[1].firing);
  EXPECT_LT(tracker.alerts()[0].time, tracker.alerts()[1].time);
}

TEST(SloTrackerTest, AdvanceRecordsClearAfterDrain) {
  // The bench drain-end pattern: traffic stops while the alert is firing;
  // a later Advance sees empty windows (burn 0) and records the clear.
  SloTracker tracker(TestSpec());
  for (int second = 0; second < 120; ++second) {
    tracker.Record(At(second), false);
  }
  ASSERT_TRUE(tracker.firing());
  tracker.Advance(At(600.0));
  EXPECT_FALSE(tracker.firing());
  ASSERT_EQ(tracker.alerts().size(), 2u);
  EXPECT_FALSE(tracker.alerts()[1].firing);
  // Re-advancing at the same time is a no-op.
  tracker.Advance(At(600.0));
  EXPECT_EQ(tracker.alerts().size(), 2u);
}

TEST(SloTrackerTest, RecordLatencyComparesAgainstThreshold) {
  SloTracker tracker(TestSpec());
  tracker.RecordLatency(At(1.0), Duration::Millis(500));   // Good.
  tracker.RecordLatency(At(1.0), Duration::Seconds(1));    // Good (<=).
  tracker.RecordLatency(At(1.0), Duration::MillisF(1001));  // Bad.
  EXPECT_EQ(tracker.good_total(), 2);
  EXPECT_EQ(tracker.bad_total(), 1);
}

// The tracker as it was before its window sums were cached: a 61-slot
// ring of 2 s buckets, rescanned for both windows on every evaluation.
class RingScanReference {
 public:
  explicit RingScanReference(double objective)
      : budget_(1.0 - objective), ring_(61) {}

  void Record(SimTime now, bool good) {
    const int64_t epoch = now.nanos() / kBucketNanos;
    Slot& slot = ring_[static_cast<size_t>(epoch % 61)];
    if (slot.epoch != epoch) {
      slot = Slot{epoch, 0, 0};
    }
    ++(good ? slot.good : slot.bad);
    Advance(now);
  }

  void Advance(SimTime now) {
    const double fast = Burn(now, 15);
    const double slow = Burn(now, 60);
    if (!firing_ && fast >= 3.0 && slow >= 3.0) {
      firing_ = true;
      alerts.push_back(SloAlert{now, true, fast, slow});
    } else if (firing_ && fast < 3.0 && slow < 3.0) {
      firing_ = false;
      alerts.push_back(SloAlert{now, false, fast, slow});
    }
  }

  std::vector<SloAlert> alerts;

 private:
  static constexpr int64_t kBucketNanos = 2'000'000'000;
  struct Slot {
    int64_t epoch = -1;
    int64_t good = 0;
    int64_t bad = 0;
  };

  double Burn(SimTime now, int64_t buckets) const {
    const int64_t newest = now.nanos() / kBucketNanos;
    int64_t good = 0;
    int64_t bad = 0;
    for (const Slot& slot : ring_) {
      if (slot.epoch > newest - buckets && slot.epoch <= newest) {
        good += slot.good;
        bad += slot.bad;
      }
    }
    if (good + bad == 0) {
      return 0.0;
    }
    return static_cast<double>(bad) / static_cast<double>(good + bad) /
           budget_;
  }

  double budget_;
  std::vector<Slot> ring_;
  bool firing_ = false;
};

// Random outcome streams whose clock mostly moves forward, with bursts of
// bad outcomes, idle gaps, and steps back in time (within a window and
// past the whole ring) on both Record and Advance: the cached window sums
// must give the ring scan's alert history exactly.
TEST(SloTrackerTest, CachedWindowsMatchRingScanOnRandomStreams) {
  int64_t transitions = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    SloTracker tracker(TestSpec());
    RingScanReference reference(TestSpec().objective);
    int64_t now_ns = 0;
    double bad_prob = 0.0;
    for (int op = 0; op < 20000; ++op) {
      const int64_t kind = rng.UniformInt(0, 99);
      if (kind < 2) {
        bad_prob = 0.01 * static_cast<double>(rng.UniformInt(0, 30));
      } else if (kind < 4) {
        now_ns += rng.UniformInt(1, 200) * 1'000'000'000;  // Idle gap.
      } else if (kind < 6) {
        now_ns -= rng.UniformInt(0, 30) * 1'000'000'000;  // Step back.
      } else if (kind < 7) {
        now_ns -= 130'000'000'000;  // Further back than the ring reaches.
      }
      if (now_ns < 0) {
        now_ns = 0;
      }
      now_ns += rng.UniformInt(0, 50'000'000);
      const SimTime now = SimTime::FromNanos(now_ns);
      if (kind < 90) {
        const bool good = !rng.Bernoulli(bad_prob);
        tracker.Record(now, good);
        reference.Record(now, good);
      } else {
        const int64_t at_ns =
            now_ns + rng.UniformInt(-40, 40) * 1'000'000'000;
        const SimTime at = SimTime::FromNanos(at_ns < 0 ? 0 : at_ns);
        tracker.Advance(at);
        reference.Advance(at);
      }
      ASSERT_EQ(tracker.alerts().size(), reference.alerts.size())
          << "seed " << seed << " op " << op;
    }
    for (size_t i = 0; i < reference.alerts.size(); ++i) {
      const SloAlert& got = tracker.alerts()[i];
      const SloAlert& want = reference.alerts[i];
      EXPECT_EQ(got.time.nanos(), want.time.nanos())
          << "seed " << seed << " alert " << i;
      EXPECT_EQ(got.firing, want.firing) << "seed " << seed << " alert " << i;
      EXPECT_EQ(got.fast_burn, want.fast_burn)
          << "seed " << seed << " alert " << i;
      EXPECT_EQ(got.slow_burn, want.slow_burn)
          << "seed " << seed << " alert " << i;
    }
    transitions += static_cast<int64_t>(reference.alerts.size());
  }
  EXPECT_GT(transitions, 100);
}

TEST(SloEngineTest, RegisterDeduplicatesByName) {
  SloEngine engine;
  SloTracker* first = engine.Register(TestSpec());
  SloSpec again = TestSpec();
  again.objective = 0.5;  // Ignored: the first registration wins.
  SloTracker* second = engine.Register(again);
  EXPECT_EQ(first, second);
  EXPECT_DOUBLE_EQ(first->spec().objective, 0.99);
  EXPECT_EQ(engine.size(), 1u);
  EXPECT_EQ(engine.Find("svc/standard"), first);
  EXPECT_EQ(engine.Find("absent"), nullptr);
}

TEST(SloEngineTest, AdvanceSweepsEveryTracker) {
  SloEngine engine;
  SloSpec a = TestSpec();
  SloSpec b = TestSpec();
  b.name = "svc/best_effort";
  b.class_name = "best_effort";
  SloTracker* ta = engine.Register(a);
  SloTracker* tb = engine.Register(b);
  for (int second = 0; second < 120; ++second) {
    ta->Record(At(second), false);
    tb->Record(At(second), false);
  }
  ASSERT_TRUE(ta->firing());
  ASSERT_TRUE(tb->firing());
  engine.Advance(At(600.0));
  EXPECT_FALSE(ta->firing());
  EXPECT_FALSE(tb->firing());
}

TEST(SloEngineTest, TallyAlertsAdvancesThenCountsTransitions) {
  SloEngine engine;
  SloSpec spec = TestSpec();
  spec.name = "svc/refires";
  SloTracker* refires = engine.Register(spec);
  spec.name = "svc/healthy";
  SloTracker* healthy = engine.Register(spec);
  spec.name = "svc/drains";
  SloTracker* drains = engine.Register(spec);
  for (int second = 0; second < 120; ++second) {
    refires->Record(At(second), false);
    healthy->Record(At(second), true);
    drains->Record(At(second), false);
  }
  // `refires` clears on an idle stretch, then burns and fires again.
  refires->Advance(At(600.0));
  for (int second = 600; second < 720; ++second) {
    refires->Record(At(second), false);
  }
  ASSERT_EQ(refires->alerts().size(), 3u);
  EXPECT_TRUE(refires->alerts()[0].firing);
  EXPECT_FALSE(refires->alerts()[1].firing);
  EXPECT_TRUE(refires->alerts()[2].firing);
  EXPECT_TRUE(healthy->alerts().empty());
  // `drains` has fired and not yet been evaluated since its burst ended.
  ASSERT_EQ(drains->alerts().size(), 1u);
  ASSERT_TRUE(drains->firing());

  // The tally's own Advance records the clear of `drains`.
  const SloAlertTally tally = engine.TallyAlerts(At(720.0));
  EXPECT_EQ(tally.fired, 3);
  EXPECT_EQ(tally.cleared, 2);
  EXPECT_EQ(tally.firing_at_end, 1);
  EXPECT_FALSE(drains->firing());
  EXPECT_TRUE(refires->firing());
}

TEST(SloEngineTest, JsonTimelineHasSpecsTotalsAndAlerts) {
  SloEngine engine;
  SloTracker* tracker = engine.Register(TestSpec());
  for (int second = 0; second < 120; ++second) {
    tracker->Record(At(second), false);
  }
  engine.Advance(At(600.0));  // Records the clear.
  std::ostringstream out;
  engine.WriteJson(out, At(600.0));
  const std::string json = out.str();
  EXPECT_NE(json.find("\"time_s\":600"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"svc/standard\""), std::string::npos);
  EXPECT_NE(json.find("\"service\":\"svc\""), std::string::npos);
  EXPECT_NE(json.find("\"class\":\"standard\""), std::string::npos);
  EXPECT_NE(json.find("\"objective\":0.99"), std::string::npos);
  EXPECT_NE(json.find("\"bad\":120"), std::string::npos);
  EXPECT_NE(json.find("\"firing\":false"), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"fire\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"clear\""), std::string::npos);
}

}  // namespace
}  // namespace soccluster
