// Property tests for the qos overload-control layer: randomized
// surge/fault/brownout interleavings must be bit-identical under a seed,
// invariant to tracing, and must never violate the layer's two safety
// promises — critical traffic is not shed for queue pressure while lower
// classes hold queue space, and the breaker never returns to closed
// without passing through half-open.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/check.h"
#include "src/base/rng.h"
#include "src/core/overload.h"

namespace soccluster {
namespace {

constexpr uint64_t kSeeds[] = {11, 23, 47, 83};

// A randomized storm against a serving fleet under the full overload
// manager: bursts of mixed-priority traffic, SoC faults, and load lulls,
// so the governor engages and releases mid-run. Returns a digest of every
// externally visible outcome.
std::string RunStorm(uint64_t seed, bool traced) {
  Simulator sim(seed);
  if (traced) {
    sim.tracer().Enable();
  }
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  SOC_CHECK(sim.RunFor(Duration::Seconds(26)).ok());
  BmcModel bmc(&sim, &cluster, BmcConfig{});
  bmc.StartSampling();
  SocServingFleet fleet(&sim, &cluster, DlDevice::kSocCpu,
                        DnnModel::kResNet50, Precision::kFp32);
  fleet.SetActiveCount(40);
  fleet.admission().SetMaxQueue(500);
  fleet.SetDeadline(Duration::Seconds(5));

  ClusterOverloadConfig config;
  config.wall_cap = Power::Watts(280.0);
  ClusterOverloadManager manager(&sim, &cluster, &bmc, config);
  manager.AttachServing(&fleet);
  manager.Start();

  Rng rng(seed * 77 + 1);
  for (int burst = 0; burst < 40; ++burst) {
    // Surge or lull, random size and class mix.
    const int count = static_cast<int>(rng.UniformInt(0, 4000));
    for (int i = 0; i < count; ++i) {
      const double u = rng.NextDouble();
      const Priority priority = u < 0.2   ? Priority::kCritical
                                : u < 0.7 ? Priority::kStandard
                                          : Priority::kBestEffort;
      fleet.Submit(priority);
    }
    // Occasional fault: kill a SoC mid-flight (requests on it die and
    // feed the breaker).
    if (rng.Bernoulli(0.3)) {
      const int victim = static_cast<int>(rng.UniformInt(0, 39));
      if (cluster.soc(victim).IsUsable()) {
        cluster.soc(victim).Fail();
      }
    }
    SOC_CHECK(sim.RunFor(Duration::SecondsF(rng.Uniform(1.0, 8.0))).ok());
  }
  SOC_CHECK(sim.RunFor(Duration::Seconds(60)).ok());

  std::ostringstream digest;
  digest << "t=" << sim.Now().nanos();
  for (int c = 0; c < kNumPriorities; ++c) {
    const Priority p = static_cast<Priority>(c);
    digest << " c" << c << "=" << fleet.completed_of(p) << "/"
           << fleet.shed_of(p) << "/" << fleet.expired_of(p);
  }
  digest << " q=" << fleet.queue_length()
         << " adm=" << fleet.admission().admitted()
         << " drop=" << fleet.admission().dropped()
         << " lvl=" << manager.governor().level()
         << " eng=" << manager.governor().engagements()
         << " rel=" << manager.governor().releases();
  const CircuitBreaker* breaker = manager.serving_breaker();
  SOC_CHECK(breaker != nullptr);
  digest << " opens=" << breaker->opens()
         << " rej=" << breaker->rejected() << " tr=";
  for (const auto& transition : breaker->transitions()) {
    digest << CircuitBreaker::StateName(transition.from) << ">"
           << CircuitBreaker::StateName(transition.to) << "@"
           << transition.time.nanos() << ";";
  }
  return digest.str();
}

TEST(QosPropertyTest, SameSeedBitIdentical) {
  for (const uint64_t seed : kSeeds) {
    EXPECT_EQ(RunStorm(seed, false), RunStorm(seed, false))
        << "seed " << seed;
  }
}

TEST(QosPropertyTest, TracingIsPassive) {
  for (const uint64_t seed : kSeeds) {
    EXPECT_EQ(RunStorm(seed, false), RunStorm(seed, true))
        << "seed " << seed;
  }
}

TEST(QosPropertyTest, CriticalNeverShedWhileLowerClassesQueued) {
  for (const uint64_t seed : kSeeds) {
    Simulator sim(seed);
    AdmissionQueue queue(&sim, "prop.critical");
    queue.SetMaxQueue(16);
    Rng rng(seed + 5);
    for (int step = 0; step < 20000; ++step) {
      if (rng.Bernoulli(0.6)) {
        const double u = rng.NextDouble();
        const Priority priority = u < 0.34  ? Priority::kCritical
                                  : u < 0.67 ? Priority::kStandard
                                             : Priority::kBestEffort;
        const int lower_before =
            (priority == Priority::kCritical
                 ? queue.SizeOf(Priority::kStandard) +
                       queue.SizeOf(Priority::kBestEffort)
                 : priority == Priority::kStandard
                       ? queue.SizeOf(Priority::kBestEffort)
                       : 0);
        const bool admitted =
            queue.Offer(priority, Duration::Zero(), 0);
        if (!admitted && priority == Priority::kCritical) {
          // A critical queue-full drop is only legal when no lower class
          // held space it could take.
          EXPECT_EQ(lower_before, 0) << "seed " << seed << " step " << step;
        }
        if (!admitted && lower_before > 0 &&
            priority != Priority::kBestEffort) {
          ADD_FAILURE() << "higher-class item shed while lower-class items "
                        << "were queued (seed " << seed << ")";
        }
      } else {
        queue.Pop();
      }
    }
  }
}

TEST(QosPropertyTest, BreakerNeverSkipsHalfOpen) {
  for (const uint64_t seed : kSeeds) {
    Simulator sim(seed);
    CircuitBreaker breaker(&sim, "prop.breaker");
    Rng rng(seed + 9);
    for (int step = 0; step < 20000; ++step) {
      const double u = rng.NextDouble();
      if (u < 0.4) {
        if (breaker.Allow()) {
          if (rng.Bernoulli(0.5)) {
            breaker.RecordFailure();
          } else {
            breaker.RecordSuccess();
          }
        }
      } else if (u < 0.7) {
        SOC_CHECK(sim.RunFor(Duration::MillisF(rng.Uniform(1.0, 400.0))).ok());
      } else if (rng.Bernoulli(0.5)) {
        breaker.RecordSuccess();
      } else {
        breaker.RecordFailure();
      }
    }
    // The walk must reach half-open and leave it both ways, or the edge
    // check below is vacuous.
    int closes = 0;
    int reopens = 0;
    for (const auto& transition : breaker.transitions()) {
      if (transition.from == CircuitBreaker::State::kHalfOpen) {
        ++(transition.to == CircuitBreaker::State::kClosed ? closes : reopens);
      }
    }
    EXPECT_GT(closes, 0) << "seed " << seed;
    EXPECT_GT(reopens, 0) << "seed " << seed;
    for (const auto& transition : breaker.transitions()) {
      // Legal edges only; in particular open never jumps straight to
      // closed.
      const bool legal =
          (transition.from == CircuitBreaker::State::kClosed &&
           transition.to == CircuitBreaker::State::kOpen) ||
          (transition.from == CircuitBreaker::State::kOpen &&
           transition.to == CircuitBreaker::State::kHalfOpen) ||
          (transition.from == CircuitBreaker::State::kHalfOpen &&
           transition.to == CircuitBreaker::State::kClosed) ||
          (transition.from == CircuitBreaker::State::kHalfOpen &&
           transition.to == CircuitBreaker::State::kOpen);
      EXPECT_TRUE(legal) << "illegal transition "
                         << CircuitBreaker::StateName(transition.from)
                         << " -> "
                         << CircuitBreaker::StateName(transition.to)
                         << " (seed " << seed << ")";
    }
  }
}

}  // namespace
}  // namespace soccluster
