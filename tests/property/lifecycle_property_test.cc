// Request-lifecycle properties shared by the three request-serving
// services (DL serving, live transcoding, serverless). Seeded mixed-priority
// attributed load runs against all three at once, with a toggling brownout
// admit floor, circuit breakers, deadlines, cold-start deferral and SoC
// faults. Every attributed ticket must reach its service's ClientObserver
// exactly once, and per class the ledger must balance:
//
//   submitted = completed + shed + expired + failed + still pending
//
// where "still pending" is work the service visibly still holds. A second
// variant turns on the serving fleet's retries (policy plus budget): the
// mid-inference fault then takes the retry path, which carries every
// recovery from a dead SoC, and the same two properties must hold.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/base/check.h"
#include "src/base/client.h"
#include "src/base/retry.h"
#include "src/base/rng.h"
#include "src/cluster/cluster.h"
#include "src/hw/specs.h"
#include "src/qos/breaker.h"
#include "src/qos/request_ledger.h"
#include "src/sim/simulator.h"
#include "src/workload/dl/serving.h"
#include "src/workload/serverless/serverless.h"
#include "src/workload/video/live.h"

namespace soccluster {
namespace {

enum Service { kServing = 0, kLive = 1, kServerless = 2 };
constexpr int kNumServices = 3;
constexpr int kNumOutcomes = 4;

using OutcomeCounts =
    std::array<std::array<std::array<int64_t, kNumOutcomes>, kNumPriorities>,
               kNumServices>;

struct Ticket {
  Service service;
  Priority priority;
  int notified = 0;
};

// Returns the serving fleet's retries through `retries`.
void RunLifecycle(uint64_t seed, bool serving_retries, int64_t* retries) {
  SCOPED_TRACE(testing::Message() << "seed " << seed << " retries "
                                  << serving_retries);
  Simulator sim(seed);
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(30)).ok());

  // Serving: two SoCs and a tight queue and deadline, so overload sheds
  // and expires. Without retries a mid-inference fault abandons; with them
  // the request is re-queued and completes, expires or fails later.
  SocServingFleet fleet(&sim, &cluster, DlDevice::kSocCpu,
                        DnnModel::kResNet50, Precision::kFp32);
  fleet.SetActiveCount(2);
  fleet.SetDeadline(Duration::Seconds(1));
  fleet.admission().SetMaxQueue(20);
  if (serving_retries) {
    RetryPolicy policy;
    policy.max_attempts = 3;
    policy.initial_backoff = Duration::Millis(50);
    fleet.SetRetryPolicy(policy, seed + 11);
    fleet.SetRetryBudget(/*tokens_per_success=*/0.1, /*max_tokens=*/5.0);
  }
  LiveTranscodingService live(&sim, &cluster, PlacementPolicy::kSpread);
  live.admission().SetMaxQueue(10);
  ServerlessPlatform serverless(&sim, &cluster, ServerlessConfig{});
  for (int f = 0; f < 4; ++f) {
    FunctionSpec spec;
    spec.name = "fn" + std::to_string(f);
    spec.exec_median = Duration::Millis(60 + 40 * f);
    ASSERT_TRUE(serverless.RegisterFunction(spec).ok());
  }
  CircuitBreaker serving_breaker(&sim, "dl.serving");
  CircuitBreaker live_breaker(&sim, "video.live");
  CircuitBreaker serverless_breaker(&sim, "serverless");
  fleet.SetBreaker(&serving_breaker);
  live.SetBreaker(&live_breaker);
  serverless.SetBreaker(&serverless_breaker);

  std::vector<Ticket> tickets(1);  // Ticket 0 means unattributed.
  OutcomeCounts observed{};
  OutcomeCounts* observed_ptr = &observed;
  std::vector<Ticket>* tickets_ptr = &tickets;
  auto observer = [tickets_ptr, observed_ptr](Service service) {
    return [tickets_ptr, observed_ptr, service](
               uint64_t ticket, ClientOutcome outcome, Duration latency) {
      ASSERT_LT(ticket, tickets_ptr->size());
      Ticket& t = (*tickets_ptr)[ticket];
      EXPECT_EQ(t.service, service);
      EXPECT_GE(latency.nanos(), 0);
      ++t.notified;
      ++(*observed_ptr)[service][static_cast<size_t>(t.priority)]
                       [static_cast<size_t>(outcome)];
    };
  };
  fleet.SetClientObserver(observer(kServing));
  live.SetClientObserver(observer(kLive));
  serverless.SetClientObserver(observer(kServerless));

  Rng rng(seed * 7919 + 1);
  int64_t tick = 0;
  PeriodicTask load(
      &sim, Duration::Millis(20),
      [&] {
        ++tick;
        if (tick % 350 == 0) {  // Brownout floor toggles every 7 s.
          const Priority floor = (tick / 350) % 2 == 1 ? Priority::kStandard
                                                       : Priority::kBestEffort;
          fleet.admission().SetAdmitFloor(floor);
          live.SetAdmitFloor(floor);
          serverless.SetAdmitFloor(floor);
        }
        if (tick % 250 == 0) {  // Cold-start deferral toggles every 5 s.
          serverless.SetDeferColdStarts(!serverless.defer_cold_starts());
        }
        const int64_t arrivals = rng.UniformInt(0, 4);
        for (int64_t a = 0; a < arrivals; ++a) {
          const Service service = static_cast<Service>(rng.UniformInt(0, 2));
          const Priority priority =
              static_cast<Priority>(rng.UniformInt(0, kNumPriorities - 1));
          ClientAttribution client;
          client.ticket = tickets.size();
          client.deadline = Duration::Seconds(2);
          tickets.push_back(Ticket{service, priority});
          switch (service) {
            case kServing:
              fleet.Submit(priority, client);
              break;
            case kLive:
              live.RequestStream(VbenchVideo::kV1Holi,
                                 TranscodeBackend::kSocCpu, priority, client);
              break;
            case kServerless: {
              const std::string fn =
                  "fn" + std::to_string(rng.UniformInt(0, 3));
              ASSERT_TRUE(
                  serverless.Invoke(fn, nullptr, priority, client).ok());
              break;
            }
          }
        }
      },
      "lifecycle.load");
  load.Start();
  // SoC faults mid-run: a serving SoC and a shared one; both come back.
  sim.ScheduleAfter(Duration::Seconds(13) + Duration::Millis(7), [&] {
    for (const int soc : {1, 20}) {
      cluster.soc(soc).Fail();
      live.OnSocFailure(soc);
    }
  });
  sim.ScheduleAfter(Duration::Seconds(25) + Duration::Millis(7), [&] {
    cluster.soc(1).Repair();
    cluster.soc(20).Repair();
  });
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(60)).ok());
  load.Stop();
  // Drain: lift every brownout lever and let in-flight work resolve.
  fleet.admission().SetAdmitFloor(Priority::kBestEffort);
  live.SetAdmitFloor(Priority::kBestEffort);
  serverless.SetAdmitFloor(Priority::kBestEffort);
  serverless.SetDeferColdStarts(false);
  ASSERT_TRUE(sim.RunFor(Duration::Minutes(10)).ok());

  // Exactly once: every ticket reported at most once, and the unreported
  // ones are exactly the live stream requests still queued.
  int64_t unreported = 0;
  std::array<std::array<int64_t, kNumPriorities>, kNumServices> submitted{};
  for (size_t t = 1; t < tickets.size(); ++t) {
    ASSERT_LE(tickets[t].notified, 1) << "ticket " << t;
    ++submitted[tickets[t].service][static_cast<size_t>(tickets[t].priority)];
    if (tickets[t].notified == 0) {
      ++unreported;
      EXPECT_EQ(tickets[t].service, kLive) << "ticket " << t;
    }
  }
  EXPECT_EQ(unreported, live.pending_requests());
  EXPECT_EQ(fleet.queue_length(), 0);
  EXPECT_EQ(serverless.deferred_pending(), 0);

  const std::array<const RequestLedger*, kNumServices> ledgers = {
      &fleet.ledger(), &live.ledger(), &serverless.ledger()};
  std::array<int64_t, kNumOutcomes> totals{};
  for (int s = 0; s < kNumServices; ++s) {
    for (int c = 0; c < kNumPriorities; ++c) {
      SCOPED_TRACE(testing::Message() << "service " << s << " class " << c);
      const Priority p = static_cast<Priority>(c);
      const RequestLedger& ledger = *ledgers[s];
      EXPECT_EQ(ledger.submitted(p), submitted[s][c]);
      int64_t resolved = 0;
      for (int o = 0; o < kNumOutcomes; ++o) {
        const ClientOutcome outcome = static_cast<ClientOutcome>(o);
        EXPECT_EQ(ledger.Count(outcome, p), observed[s][c][o]);
        resolved += observed[s][c][o];
        totals[o] += observed[s][c][o];
      }
      const int64_t still_pending =
          s == kLive ? live.admission().SizeOf(p) : 0;
      EXPECT_EQ(submitted[s][c], resolved + still_pending);
      EXPECT_EQ(ledger.pending(p), still_pending);
    }
  }
  // The load must actually exercise every outcome, and trip a breaker.
  // With retries on, the serving fault may have been the only failure.
  for (int o = 0; o < kNumOutcomes; ++o) {
    const ClientOutcome outcome = static_cast<ClientOutcome>(o);
    if (serving_retries && outcome == ClientOutcome::kFailed) {
      continue;
    }
    EXPECT_GT(totals[o], 0) << ClientOutcomeName(outcome);
  }
  EXPECT_GT(serving_breaker.opens() + live_breaker.opens() +
                serverless_breaker.opens(),
            0);
  // A request the fault catches mid-inference is retried, never lost.
  if (serving_retries) {
    EXPECT_EQ(fleet.failed(), 0);
  } else {
    EXPECT_EQ(fleet.retries(), 0);
  }
  *retries = fleet.retries();
}

TEST(LifecyclePropertyTest, EveryTicketResolvesOnceAndLedgersBalance) {
  for (const uint64_t seed : {1, 2, 3, 4}) {
    int64_t retries = 0;
    RunLifecycle(seed, /*serving_retries=*/false, &retries);
  }
}

TEST(LifecyclePropertyTest, ServingRetriesResolveOnceAndLedgersBalance) {
  int64_t total_retries = 0;
  for (const uint64_t seed : {1, 2, 3, 4}) {
    int64_t retries = 0;
    RunLifecycle(seed, /*serving_retries=*/true, &retries);
    total_retries += retries;
  }
  // The fault lands on a busy serving SoC in most seeds (not seed 2, where
  // SoC 1 is idle at that instant), so the campaign takes the retry path.
  EXPECT_GT(total_retries, 0);
}

}  // namespace
}  // namespace soccluster
