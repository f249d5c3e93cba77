// Determinism properties of the resilience layer: identical FaultConfig
// seeds (and identically seeded planted gray faults) must produce
// bit-identical failure schedules, and tracing must be purely passive
// (enabling it cannot perturb a chaos run).

#include <array>
#include <vector>

#include "gtest/gtest.h"
#include "src/base/digest.h"
#include "src/base/rng.h"
#include "src/cluster/cluster.h"
#include "src/cluster/fault.h"
#include "src/core/chaos.h"
#include "src/hw/specs.h"

namespace soccluster {
namespace {

ChaosConfig AggressiveChaos(uint64_t seed) {
  ChaosConfig config;
  config.faults.mtbf_per_soc = Duration::Hours(24 * 10);
  config.faults.transient_fraction = 0.5;
  config.faults.transient_outage = Duration::Minutes(3);
  config.faults.repair_time = Duration::Hours(12);
  config.faults.mtbf_per_pcb = Duration::Hours(24 * 60);
  config.faults.uplink_flap_mtbf = Duration::Hours(24 * 7);
  config.faults.thermal_mtbf = Duration::Hours(24 * 3);
  config.faults.seed = seed;
  config.horizon = Duration::Hours(24 * 20);
  return config;
}

// Gray faults have no seeded chain, so the test draws its own: `count`
// excursions of random kind, target, start in [start, start + horizon) and
// length, planted through the injector.
void PlantGrayFaults(FaultInjector& injector, const SocCluster& cluster,
                     uint64_t seed, int count, SimTime start,
                     Duration horizon) {
  Rng rng(seed);
  for (int n = 0; n < count; ++n) {
    const SimTime at =
        start + Duration::SecondsF(rng.Uniform(0.0, horizon.ToSeconds()));
    const Duration length = Duration::Minutes(rng.UniformInt(10, 120));
    const auto soc =
        static_cast<int>(rng.UniformInt(0, cluster.num_socs() - 1));
    switch (rng.UniformInt(0, 3)) {
      case 0:
        injector.PlantSlowSoc(soc, at, length, 0.3);
        break;
      case 1:
        injector.PlantZombie(soc, at, length);
        break;
      case 2:
        injector.PlantFlakyHeartbeat(soc, at, length, 0.5);
        break;
      default:
        // Slot num_pcbs is the ESB uplink.
        injector.PlantLinkBrownout(soc % (cluster.chassis().num_pcbs + 1), at,
                                   length, 0.25);
        break;
    }
  }
}

struct ChaosOutcome {
  std::vector<FaultEvent> history;
  ChaosReport report;
  int64_t gray_faults = 0;
};

ChaosOutcome RunChaos(uint64_t seed, bool traced) {
  Simulator sim(seed);
  if (traced) {
    sim.tracer().Enable();
  }
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  Status status = sim.RunFor(Duration::Seconds(60));
  SOC_CHECK(status.ok());
  ChaosRunner chaos(&sim, &cluster, /*orchestrator=*/nullptr,
                    AggressiveChaos(seed));
  PlantGrayFaults(chaos.injector(), cluster, seed, /*count=*/64, sim.Now(),
                  AggressiveChaos(seed).horizon);
  chaos.Start();
  status = sim.RunFor(Duration::Hours(24 * 21));
  SOC_CHECK(status.ok());
  return {chaos.injector().history(), chaos.Report(),
          chaos.injector().gray_faults()};
}

void ExpectIdentical(const ChaosOutcome& a, const ChaosOutcome& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].kind, b.history[i].kind) << "event " << i;
    EXPECT_EQ(a.history[i].index, b.history[i].index) << "event " << i;
    EXPECT_EQ(a.history[i].at.nanos(), b.history[i].at.nanos())
        << "event " << i;
  }
  // Bitwise, not approximate: the runs must be indistinguishable.
  EXPECT_EQ(a.report.availability, b.report.availability);
  EXPECT_EQ(a.report.mttr_hours, b.report.mttr_hours);
  EXPECT_EQ(a.report.detection_latency_ms, b.report.detection_latency_ms);
  EXPECT_EQ(a.report.failures, b.report.failures);
  EXPECT_EQ(a.report.repairs, b.report.repairs);
  EXPECT_EQ(a.report.down_events, b.report.down_events);
  EXPECT_EQ(a.report.up_events, b.report.up_events);
}

TEST(FaultPropertyTest, SameSeedSameSchedule) {
  for (uint64_t seed : {1u, 42u, 1234u}) {
    const ChaosOutcome first = RunChaos(seed, /*traced=*/false);
    const ChaosOutcome second = RunChaos(seed, /*traced=*/false);
    ASSERT_FALSE(first.history.empty());
    ASSERT_GT(first.gray_faults, 0) << "seed " << seed;
    ExpectIdentical(first, second);
  }
}

TEST(FaultPropertyTest, DifferentSeedsDiverge) {
  const ChaosOutcome a = RunChaos(42, /*traced=*/false);
  const ChaosOutcome b = RunChaos(43, /*traced=*/false);
  ASSERT_FALSE(a.history.empty());
  ASSERT_FALSE(b.history.empty());
  bool differs = a.history.size() != b.history.size();
  for (size_t i = 0; !differs && i < a.history.size(); ++i) {
    differs = a.history[i].at.nanos() != b.history[i].at.nanos();
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPropertyTest, TracingIsPassive) {
  const ChaosOutcome untraced = RunChaos(7, /*traced=*/false);
  const ChaosOutcome traced = RunChaos(7, /*traced=*/true);
  ASSERT_FALSE(untraced.history.empty());
  ASSERT_GT(untraced.gray_faults, 0);
  ExpectIdentical(untraced, traced);
}

// Golden schedule: every seeded chain (per-SoC transient/permanent, PCB,
// uplink flap, thermal), so all five chained kinds, enabled at once on the
// default chassis, with repaired SoCs powered back on so every chain keeps
// finding eligible targets. Any change to the RNG
// draw order, eligibility rules or restore scheduling moves the pinned
// values.
TEST(FaultPropertyTest, FiveChainedKindsGoldenSchedule) {
  Simulator sim(11);
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(60)).ok());
  FaultConfig config;
  config.mtbf_per_soc = Duration::Hours(24 * 5);
  config.transient_fraction = 0.5;
  config.repair_time = Duration::Hours(6);
  config.mtbf_per_pcb = Duration::Hours(24 * 10);
  config.pcb_repair_time = Duration::Hours(12);
  config.uplink_flap_mtbf = Duration::Hours(24);
  config.thermal_mtbf = Duration::Hours(24 * 2);
  config.seed = 2024;
  FaultInjector injector(&sim, &cluster, config);
  injector.set_on_repair([&cluster](int soc_index) {
    ASSERT_TRUE(cluster.soc(soc_index).PowerOn(Duration::Seconds(20), nullptr)
                    .ok());
  });
  injector.Start(Duration::Hours(24 * 4));
  sim.Run();

  StateDigest fold;
  for (const FaultEvent& event : injector.history()) {
    fold.Mix(static_cast<int>(event.kind));
    fold.Mix(event.index);
    fold.Mix(event.at.nanos());
  }
  // Gray kinds have no chain: only Plant* injects them.
  const std::array<int64_t, kNumFaultKinds> expected_counts = {
      27, 20, 8, 50, 119, 0, 0, 0, 0};
  for (int k = 0; k < kNumFaultKinds; ++k) {
    const auto kind = static_cast<FaultKind>(k);
    EXPECT_EQ(injector.faults_of(kind),
              expected_counts[static_cast<size_t>(k)])
        << FaultKindName(kind);
  }
  EXPECT_EQ(injector.history().size(), 224u);
  EXPECT_EQ(fold.value(), 2191401857509969654u);
}

}  // namespace
}  // namespace soccluster
