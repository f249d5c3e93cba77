// The determinism audit as a property suite: engine-level invariants of
// the tie-break perturbation mode (reproducibility, time order, anchor
// pinning), the auditor's detection machinery against a deliberately racy
// scenario, and the headline guarantee — the four flagship audit
// scenarios are independent of equal-timestamp dispatch order across
// seeded permutations, certified by bit-identical state digests.

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/digest.h"
#include "src/core/det_scenarios.h"
#include "src/sim/determinism.h"
#include "src/sim/simulator.h"

namespace soccluster {
namespace {

// ---------------------------------------------------------------------------
// StateDigest basics.

TEST(StateDigest, OrderSensitiveByDefault) {
  StateDigest ab;
  ab.Mix(static_cast<uint64_t>(1));
  ab.Mix(static_cast<uint64_t>(2));
  StateDigest ba;
  ba.Mix(static_cast<uint64_t>(2));
  ba.Mix(static_cast<uint64_t>(1));
  EXPECT_NE(ab.value(), ba.value());
}

TEST(StateDigest, UnorderedFoldCommutes) {
  StateDigest::Unordered ab;
  ab.Add(StateDigest::HashOf(static_cast<uint64_t>(7)));
  ab.Add(StateDigest::HashOf(static_cast<uint64_t>(9)));
  StateDigest::Unordered ba;
  ba.Add(StateDigest::HashOf(static_cast<uint64_t>(9)));
  ba.Add(StateDigest::HashOf(static_cast<uint64_t>(7)));
  StateDigest a;
  a.Mix(ab);
  StateDigest b;
  b.Mix(ba);
  EXPECT_EQ(a.value(), b.value());
}

TEST(StateDigest, DoubleMixedByBitPattern) {
  StateDigest zero;
  zero.Mix(0.0);
  StateDigest negzero;
  negzero.Mix(-0.0);
  EXPECT_NE(zero.value(), negzero.value());  // Distinct bit patterns.
}

// ---------------------------------------------------------------------------
// Tie-break perturbation engine invariants.

TEST(TieBreakPerturbation, SameSeedReproduces) {
  auto run = [](uint64_t seed) {
    Simulator sim(11);
    sim.EnableTieBreakPerturbation(seed);
    std::vector<int> fired;
    for (int i = 0; i < 16; ++i) {
      sim.ScheduleAt(SimTime::FromNanos(100), [&fired, i] {
        fired.push_back(i);
      });
    }
    sim.Run();
    return fired;
  };
  EXPECT_EQ(run(3), run(3));
  EXPECT_NE(run(3), run(4));  // 16! orders; collision is astronomically unlikely.
}

TEST(TieBreakPerturbation, PermutesOnlyWithinEqualTimestamps) {
  Simulator sim(11);
  sim.EnableTieBreakPerturbation(5);
  std::vector<std::pair<int64_t, int>> fired;
  for (int batch = 0; batch < 4; ++batch) {
    for (int i = 0; i < 8; ++i) {
      sim.ScheduleAt(SimTime::FromNanos(100 * (batch + 1)),
                     [&fired, &sim, i] {
                       fired.emplace_back(sim.Now().nanos(), i);
                     });
    }
  }
  sim.Run();
  ASSERT_EQ(fired.size(), 32u);
  for (size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1].first, fired[i].first);  // Time order holds.
  }
}

TEST(TieBreakPerturbation, AnchorGroupPinsRelativeOrder) {
  // Across many seeds, anchored events always fire in schedule order even
  // when the surrounding batch is shuffled.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Simulator sim(11);
    sim.EnableTieBreakPerturbation(seed);
    const uint64_t group = sim.NewAnchorGroup();
    std::vector<std::string> fired;
    for (int i = 0; i < 6; ++i) {
      sim.ScheduleAt(SimTime::FromNanos(50), [&fired, i] {
        fired.push_back("free" + std::to_string(i));
      });
    }
    sim.ScheduleAt(SimTime::FromNanos(50),
                   [&fired] { fired.push_back("first"); }, "a.first", group);
    sim.ScheduleAt(SimTime::FromNanos(50),
                   [&fired] { fired.push_back("second"); }, "a.second", group);
    sim.Run();
    const auto first = std::find(fired.begin(), fired.end(), "first");
    const auto second = std::find(fired.begin(), fired.end(), "second");
    ASSERT_NE(first, fired.end());
    ASSERT_NE(second, fired.end());
    EXPECT_LT(first - fired.begin(), second - fired.begin()) << "seed " << seed;
  }
}

TEST(TieBreakPerturbation, CancellationBeforeBatchHonored) {
  // Events cancelled ahead of their timestamp never fire, whichever
  // position the permutation would have dealt them. (Cancellation from
  // *inside* the same batch is inherently order-dependent -- the canceller
  // may be permuted after its victim -- which is exactly the kind of race
  // the auditor exists to flag.)
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Simulator sim(11);
    sim.EnableTieBreakPerturbation(seed);
    int fired = 0;
    std::vector<EventHandle> handles;
    for (int i = 0; i < 8; ++i) {
      handles.push_back(
          sim.ScheduleAt(SimTime::FromNanos(10), [&fired] { ++fired; }));
    }
    sim.ScheduleAt(SimTime::FromNanos(5), [&] {
      EXPECT_TRUE(sim.Cancel(handles[2]));
      EXPECT_TRUE(sim.Cancel(handles[5]));
    });
    sim.Run();
    EXPECT_EQ(fired, 6) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Auditor detection: a deliberately racy scenario must be caught, bisected,
// and labeled; an order-independent one must be certified.

// Two equal-timestamp events with non-commuting effects, repeated every
// tick: the canonical hidden race that FIFO dispatch masks.
DetScenario RacyScenario() {
  return [](Simulator& sim) {
    auto value = std::make_shared<int64_t>(1);
    for (int tick = 1; tick <= 10; ++tick) {
      const SimTime t = SimTime::Zero() + Duration::Seconds(tick);
      int64_t* v = value.get();
      sim.ScheduleAt(t, [v] { *v = *v * 3; }, "racy.scale");
      sim.ScheduleAt(t, [v] { *v = *v + 1; }, "racy.add");
    }
    DetScenarioRun run;
    run.end = SimTime::Zero() + Duration::Seconds(11);
    run.keepalive = value;
    run.digest = [value] { return StateDigest::HashOf(*value); };
    return run;
  };
}

// The same pair made order-independent by anchoring scale-before-add.
DetScenario AnchoredScenario() {
  return [](Simulator& sim) {
    auto value = std::make_shared<int64_t>(1);
    for (int tick = 1; tick <= 10; ++tick) {
      const SimTime t = SimTime::Zero() + Duration::Seconds(tick);
      const uint64_t group = sim.NewAnchorGroup();
      int64_t* v = value.get();
      sim.ScheduleAt(t, [v] { *v = *v * 3; }, "anchored.scale", group);
      sim.ScheduleAt(t, [v] { *v = *v + 1; }, "anchored.add", group);
    }
    DetScenarioRun run;
    run.end = SimTime::Zero() + Duration::Seconds(11);
    run.keepalive = value;
    run.digest = [value] { return StateDigest::HashOf(*value); };
    return run;
  };
}

TEST(DeterminismAuditor, DetectsAndLabelsRace) {
  DeterminismAuditor auditor("racy", RacyScenario(), /*permutations=*/8);
  const DivergenceReport report = auditor.Run();
  ASSERT_TRUE(report.diverged);
  EXPECT_NE(report.fifo_digest, report.perturbed_digest);
  EXPECT_GT(report.window_end.nanos(), report.window_begin.nanos());
  // The bisection names the colliding events.
  EXPECT_NE(std::find(report.suspect_labels.begin(),
                      report.suspect_labels.end(), "racy.scale"),
            report.suspect_labels.end());
  EXPECT_NE(std::find(report.suspect_labels.begin(),
                      report.suspect_labels.end(), "racy.add"),
            report.suspect_labels.end());
  EXPECT_FALSE(report.detail.empty());
}

TEST(DeterminismAuditor, AnchoredRaceIsCertified) {
  DeterminismAuditor auditor("anchored", AnchoredScenario(),
                             /*permutations=*/8);
  const DivergenceReport report = auditor.Run();
  EXPECT_FALSE(report.diverged) << report.detail;
  EXPECT_EQ(report.permutations_run, 8);
}

// Strict RFC 8259 recognizer, just enough to tell whether a report parses:
// in particular a raw control character inside a string is rejected.
class JsonRecognizer {
 public:
  explicit JsonRecognizer(const std::string& text) : text_(text) {}

  bool Parses() {
    return Value() && (SkipSpace(), pos_ == text_.size());
  }

 private:
  static bool OneOf(const char* set, char c) {
    return c != '\0' && std::strchr(set, c) != nullptr;
  }
  void SkipSpace() {
    while (pos_ < text_.size() && OneOf(" \t\n\r", text_[pos_])) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Literal(const char* word) {
    const size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) {
      return false;
    }
    pos_ += n;
    return true;
  }
  bool String() {
    if (!Eat('"')) {
      return false;
    }
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_++]);
      if (c == '"') {
        return true;
      }
      if (c < 0x20) {
        return false;
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          return false;
        }
        const char e = text_[pos_++];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size() || !std::isxdigit(static_cast<
                                            unsigned char>(text_[pos_++]))) {
              return false;
            }
          }
        } else if (!OneOf("\"\\/bfnrt", e)) {
          return false;
        }
      }
    }
    return false;
  }
  bool Number() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() && OneOf("0123456789.eE+-", text_[pos_])) {
      ++pos_;
    }
    return pos_ > start && std::isdigit(static_cast<unsigned char>(
                               text_[pos_ - 1]));
  }
  bool Value() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        ++pos_;
        if (Eat('}')) {
          return true;
        }
        do {
          if (!String() || !Eat(':') || !Value()) {
            return false;
          }
        } while (Eat(','));
        return Eat('}');
      case '[':
        ++pos_;
        if (Eat(']')) {
          return true;
        }
        do {
          if (!Value()) {
            return false;
          }
        } while (Eat(','));
        return Eat(']');
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

TEST(DeterminismAuditor, DivergenceReportJsonRoundTrips) {
  DeterminismAuditor auditor("racy", RacyScenario(), /*permutations=*/2);
  const DivergenceReport report = auditor.Run();
  std::ostringstream out;
  WriteDivergenceReportJson(report, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"scenario\": \"racy\""), std::string::npos);
  EXPECT_NE(json.find("\"diverged\": true"), std::string::npos);
  EXPECT_NE(json.find("\"suspect_labels\""), std::string::npos);
  EXPECT_TRUE(JsonRecognizer(json).Parses()) << json;
}

// Labels and the bisection narrative are free text: tabs, carriage returns
// and other control characters must come out escaped.
TEST(DeterminismAuditor, DivergenceReportJsonEscapesControlCharacters) {
  DivergenceReport report;
  report.scenario = "tab\there";
  report.diverged = true;
  report.suspect_labels = {"col\tumn", "bell\a", "quote\"back\\slash"};
  report.detail = "line one\r\nline two\tindented\x01\x1f";
  std::ostringstream out;
  WriteDivergenceReportJson(report, out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonRecognizer(json).Parses()) << json;
  EXPECT_NE(json.find("\"scenario\": \"tab\\there\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("bell\\u0007"), std::string::npos) << json;
  EXPECT_NE(json.find("indented\\u0001\\u001f"), std::string::npos) << json;
}

// The race found (and fixed) in this repo's own scenarios: a fault event
// tie-aligned with a service tick is order-ambiguous. Kept as the
// regression guard for the off-grid fix in DetLiveStreamScenario.
TEST(DeterminismAuditor, TickAlignedFaultIsARealRace) {
  DetScenario scenario = [](Simulator& sim) {
    auto state = std::make_shared<std::pair<int, int>>(0, 0);  // {placed, lost}
    auto soc_up = std::make_shared<bool>(true);
    // A placement tick every second...
    for (int tick = 1; tick <= 5; ++tick) {
      sim.ScheduleAt(SimTime::Zero() + Duration::Seconds(tick),
                     [state, soc_up] {
                       if (*soc_up) {
                         ++state->first;
                       }
                     },
                     "tick.place");
    }
    // ...and a fault landing exactly on tick 3.
    sim.ScheduleAt(SimTime::Zero() + Duration::Seconds(3),
                   [state, soc_up] {
                     *soc_up = false;
                     state->second = state->first;
                   },
                   "tick.fault");
    DetScenarioRun run;
    run.end = SimTime::Zero() + Duration::Seconds(6);
    run.keepalive = state;
    run.digest = [state] {
      StateDigest digest;
      digest.Mix(state->first);
      digest.Mix(state->second);
      return digest.value();
    };
    return run;
  };
  DeterminismAuditor auditor("tick_aligned_fault", std::move(scenario),
                             /*permutations=*/8);
  const DivergenceReport report = auditor.Run();
  EXPECT_TRUE(report.diverged);
}

// ---------------------------------------------------------------------------
// The headline: every flagship scenario is order-independent across eight
// seeded tie-break permutations. These tests are the CI certificate: the
// asan-ubsan job runs them under ASan+UBSan, and bench_determinism_audit
// runs the same audit standalone.

class FlagshipScenario : public ::testing::TestWithParam<int> {};

TEST_P(FlagshipScenario, OrderIndependentAcrossEightPermutations) {
  const DetScenarioSpec spec = AllDetScenarios()[static_cast<size_t>(GetParam())];
  DeterminismAuditor auditor(spec.name, spec.make(), /*permutations=*/8);
  const DivergenceReport report = auditor.Run();
  EXPECT_FALSE(report.diverged)
      << spec.name << ": " << report.detail << " (seed "
      << report.divergent_seed << ")";
  EXPECT_EQ(report.permutations_run, 8);
  EXPECT_NE(report.baseline_digest, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, FlagshipScenario,
                         ::testing::Range(0, 5), [](const auto& param_info) {
                           return std::string(
                               AllDetScenarios()[static_cast<size_t>(
                                                     param_info.param)]
                                   .name);
                         });

}  // namespace
}  // namespace soccluster
