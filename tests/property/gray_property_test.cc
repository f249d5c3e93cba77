// Determinism and safety properties of the gray-failure layer: a seeded,
// planted gray storm (slow SoCs, brownouts, flaky heartbeats, zombies) with
// the full detect/quarantine/probe loop must be bit-identical across
// same-seed runs and indifferent to tracing, and the adaptive detectors
// must stay silent on a perfectly healthy fleet.

#include "gtest/gtest.h"
#include "src/base/digest.h"
#include "src/base/rng.h"
#include "src/cluster/cluster.h"
#include "src/core/chaos.h"
#include "src/core/graydetect.h"
#include "src/core/health.h"
#include "src/hw/specs.h"

namespace soccluster {
namespace {

ChaosConfig GrayStormConfig(uint64_t seed) {
  ChaosConfig config;
  // Pure gray storm: fail-stop chains effectively disabled so every event
  // exercises the fail-slow paths.
  config.faults.mtbf_per_soc = Duration::Hours(24 * 365 * 100);
  config.faults.seed = seed;
  config.health.mode = DetectorMode::kPhiAccrual;
  config.health.seed = seed + 1;
  config.horizon = Duration::Hours(12);
  config.enable_gray = true;
  config.gray.scorer.window = Duration::Seconds(30);
  config.gray.scorer.min_samples = 10;
  config.gray.tick = Duration::Seconds(30);
  config.gray.reboot_time = Duration::Minutes(3);
  return config;
}

// The storm itself, drawn from the test's own seeded stream: every target
// gets Poisson arrivals of each gray kind over `horizon` from `start`,
// planted through the injector (a SoC that is not usable at its arrival
// gets nothing).
void PlantGrayStorm(FaultInjector& injector, const SocCluster& cluster,
                    uint64_t seed, SimTime start, Duration horizon) {
  struct Process {
    FaultKind kind;
    Duration mtbf;
    Duration duration;
    double value;  // Throttle or brownout factor, or heartbeat loss.
  };
  constexpr Process kStorm[] = {
      {FaultKind::kSlowSoc, Duration::Hours(24), Duration::Hours(2), 0.3},
      {FaultKind::kZombie, Duration::Hours(36), Duration::Hours(1), 0.0},
      {FaultKind::kFlakyHeartbeat, Duration::Hours(24), Duration::Minutes(30),
       0.5},
      {FaultKind::kLinkBrownout, Duration::Hours(48), Duration::Minutes(30),
       0.25},
  };
  Rng rng(seed);
  for (const Process& p : kStorm) {
    const int targets = p.kind == FaultKind::kLinkBrownout
                            ? cluster.chassis().num_pcbs + 1
                            : cluster.num_socs();
    for (int i = 0; i < targets; ++i) {
      for (double t = rng.Exponential(1.0 / p.mtbf.ToSeconds());
           t < horizon.ToSeconds();
           t += rng.Exponential(1.0 / p.mtbf.ToSeconds())) {
        const SimTime at = start + Duration::SecondsF(t);
        switch (p.kind) {
          case FaultKind::kSlowSoc:
            injector.PlantSlowSoc(i, at, p.duration, p.value);
            break;
          case FaultKind::kZombie:
            injector.PlantZombie(i, at, p.duration);
            break;
          case FaultKind::kFlakyHeartbeat:
            injector.PlantFlakyHeartbeat(i, at, p.duration, p.value);
            break;
          default:
            injector.PlantLinkBrownout(i, at, p.duration, p.value);
            break;
        }
      }
    }
  }
}

struct StormOutcome {
  uint64_t digest = 0;
  int64_t gray_faults = 0;
  int64_t suspects = 0;
  int64_t quarantines = 0;
  int64_t reinstated = 0;
  int64_t escalated = 0;
  int64_t down_events = 0;
};

StormOutcome RunGrayStorm(uint64_t seed, bool traced) {
  Simulator sim(seed);
  if (traced) {
    sim.tracer().Enable();
  }
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  Status status = sim.RunFor(Duration::Seconds(60));
  SOC_CHECK(status.ok());
  const ChaosConfig config = GrayStormConfig(seed);
  ChaosRunner chaos(&sim, &cluster, /*orchestrator=*/nullptr, config);
  PlantGrayStorm(chaos.injector(), cluster, seed, sim.Now(), config.horizon);
  // Synthetic request-path evidence standing in for a workload: each
  // usable SoC completes one probe-sized request per second, stretched by
  // its throttle and failed by a zombie request path. Deterministic.
  PeriodicTask feed(
      &sim, Duration::Seconds(1),
      [&] {
        DegradationScorer& scorer = chaos.gray()->scorer();
        for (int i = 0; i < cluster.num_socs(); ++i) {
          const SocModel& soc = cluster.soc(i);
          if (!soc.IsUsable() || soc.quarantined()) {
            continue;  // Quarantine drains traffic.
          }
          if (soc.zombie()) {
            scorer.Report(i, Duration::Zero(), /*ok=*/false);
          } else {
            scorer.Report(
                i, Duration::MillisF(100.0 / soc.throttle_factor()), true);
          }
        }
      },
      "test.feed");
  feed.Start();
  chaos.Start();
  status = sim.RunFor(Duration::Hours(13));
  SOC_CHECK(status.ok());

  StormOutcome out;
  StateDigest digest;
  sim.DigestState(digest);
  cluster.DigestState(digest);
  chaos.gray()->DigestState(digest);
  out.digest = digest.value();
  out.gray_faults = chaos.injector().gray_faults();
  out.suspects = chaos.gray()->suspects_total();
  out.quarantines = chaos.gray()->quarantines_total();
  out.reinstated = chaos.gray()->reinstated_total();
  out.escalated = chaos.gray()->escalated_total();
  out.down_events = chaos.monitor().down_events();
  return out;
}

TEST(GrayPropertyTest, SameSeedStormIsBitIdentical) {
  for (uint64_t seed : {3u, 42u, 777u}) {
    const StormOutcome first = RunGrayStorm(seed, /*traced=*/false);
    const StormOutcome second = RunGrayStorm(seed, /*traced=*/false);
    ASSERT_GT(first.gray_faults, 0) << "seed " << seed;
    EXPECT_EQ(first.digest, second.digest) << "seed " << seed;
    EXPECT_EQ(first.gray_faults, second.gray_faults) << "seed " << seed;
    EXPECT_EQ(first.suspects, second.suspects) << "seed " << seed;
    EXPECT_EQ(first.quarantines, second.quarantines) << "seed " << seed;
    EXPECT_EQ(first.reinstated, second.reinstated) << "seed " << seed;
    EXPECT_EQ(first.escalated, second.escalated) << "seed " << seed;
    EXPECT_EQ(first.down_events, second.down_events) << "seed " << seed;
  }
}

TEST(GrayPropertyTest, TracingIsPassiveUnderGrayStorm) {
  const StormOutcome untraced = RunGrayStorm(11, /*traced=*/false);
  const StormOutcome traced = RunGrayStorm(11, /*traced=*/true);
  ASSERT_GT(untraced.gray_faults, 0);
  EXPECT_EQ(untraced.digest, traced.digest);
  EXPECT_EQ(untraced.quarantines, traced.quarantines);
}

TEST(GrayPropertyTest, StormActuallyExercisesTheLoop) {
  // At least one seed must drive the full lifecycle, or the property
  // above is vacuous.
  const StormOutcome out = RunGrayStorm(42, /*traced=*/false);
  EXPECT_GT(out.suspects, 0);
  EXPECT_GT(out.quarantines, 0);
}

TEST(GrayPropertyTest, DetectorsNeverFireOnHealthyFleet) {
  // Eight seeds, zero faults: the phi detector must never mark a SoC down
  // and the gray loop must never suspect or quarantine anything.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Simulator sim(seed);
    SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
    cluster.PowerOnAll(nullptr);
    Status status = sim.RunFor(Duration::Seconds(60));
    SOC_CHECK(status.ok());
    ChaosConfig config;
    config.faults.mtbf_per_soc = Duration::Hours(24 * 365 * 100);
    config.health.mode = DetectorMode::kPhiAccrual;
    config.health.seed = seed;
    config.horizon = Duration::Hours(6);
    config.enable_gray = true;
    ChaosRunner chaos(&sim, &cluster, /*orchestrator=*/nullptr, config);
    PeriodicTask feed(
        &sim, Duration::Seconds(1),
        [&] {
          for (int i = 0; i < cluster.num_socs(); ++i) {
            chaos.gray()->scorer().Report(i, Duration::MillisF(100.0), true);
          }
        },
        "test.feed");
    feed.Start();
    chaos.Start();
    status = sim.RunFor(Duration::Hours(7));
    SOC_CHECK(status.ok());
    EXPECT_EQ(chaos.monitor().down_events(), 0) << "seed " << seed;
    EXPECT_EQ(chaos.gray()->suspects_total(), 0) << "seed " << seed;
    EXPECT_EQ(chaos.gray()->quarantines_total(), 0) << "seed " << seed;
    EXPECT_EQ(chaos.injector().failures_injected(), 0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace soccluster
