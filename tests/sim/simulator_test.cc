#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"

namespace soccluster {
namespace {

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), SimTime::Zero());
  EXPECT_EQ(sim.events_processed(), 0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAfter(Duration::Seconds(3), [&] { order.push_back(3); });
  sim.ScheduleAfter(Duration::Seconds(1), [&] { order.push_back(1); });
  sim.ScheduleAfter(Duration::Seconds(2), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), SimTime::Zero() + Duration::Seconds(3));
}

TEST(SimulatorTest, FifoTieBreakAtEqualTimes) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAfter(Duration::Seconds(1), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim;
  SimTime seen;
  sim.ScheduleAfter(Duration::Millis(250), [&] { seen = sim.Now(); });
  sim.Run();
  EXPECT_EQ(seen, SimTime::Zero() + Duration::Millis(250));
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAfter(Duration::Seconds(1), [&] {
    ++fired;
    sim.ScheduleAfter(Duration::Seconds(1), [&] { ++fired; });
  });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), SimTime::Zero() + Duration::Seconds(2));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  EventHandle handle = sim.ScheduleAfter(Duration::Seconds(1),
                                         [&] { ran = true; });
  EXPECT_TRUE(sim.Cancel(handle));
  sim.Run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.events_processed(), 0);
}

TEST(SimulatorTest, CancelInvalidHandleIsNoop) {
  Simulator sim;
  EXPECT_FALSE(sim.Cancel(EventHandle()));
}

TEST(SimulatorTest, DoubleCancelReturnsFalse) {
  Simulator sim;
  EventHandle handle = sim.ScheduleAfter(Duration::Seconds(1), [] {});
  EXPECT_TRUE(sim.Cancel(handle));
  EXPECT_FALSE(sim.Cancel(handle));
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAfter(Duration::Seconds(1), [&] { ++fired; });
  sim.ScheduleAfter(Duration::Seconds(5), [&] { ++fired; });
  ASSERT_TRUE(sim.RunUntil(SimTime::Zero() + Duration::Seconds(2)).ok());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), SimTime::Zero() + Duration::Seconds(2));
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunUntilIncludesBoundaryEvents) {
  Simulator sim;
  bool ran = false;
  sim.ScheduleAfter(Duration::Seconds(2), [&] { ran = true; });
  ASSERT_TRUE(sim.RunUntil(SimTime::Zero() + Duration::Seconds(2)).ok());
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, RunUntilPastIsError) {
  Simulator sim;
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(5)).ok());
  EXPECT_FALSE(sim.RunUntil(SimTime::Zero() + Duration::Seconds(1)).ok());
}

TEST(SimulatorTest, RunForAdvancesEvenWithNoEvents) {
  Simulator sim;
  ASSERT_TRUE(sim.RunFor(Duration::Hours(10)).ok());
  EXPECT_EQ(sim.Now(), SimTime::Zero() + Duration::Hours(10));
}

TEST(SimulatorTest, StepExecutesExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAfter(Duration::Seconds(1), [&] { ++fired; });
  sim.ScheduleAfter(Duration::Seconds(2), [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  auto run = [] {
    Simulator sim(42);
    std::vector<uint64_t> values;
    for (int i = 0; i < 5; ++i) {
      sim.ScheduleAfter(Duration::SecondsF(sim.rng().NextDouble()),
                        [&values, &sim] { values.push_back(sim.rng().NextUint64()); });
    }
    sim.Run();
    return values;
  };
  EXPECT_EQ(run(), run());
}

// --- Cancel edge cases: these are the invariants the pending-id set in
// Simulator::Cancel() guards (a stale handle must never poison the
// lazy-cancellation state or the pending_events() count).

TEST(SimulatorTest, CancelAlreadyFiredHandleReturnsFalse) {
  Simulator sim;
  int fired = 0;
  EventHandle handle =
      sim.ScheduleAfter(Duration::Seconds(1), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.Cancel(handle));
  // A stale cancel must not skip unrelated future events or corrupt the
  // pending count.
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.ScheduleAfter(Duration::Seconds(1), [&] { ++fired; });
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, CancelTwiceLeavesPendingCountConsistent) {
  Simulator sim;
  EventHandle handle = sim.ScheduleAfter(Duration::Seconds(1), [] {});
  sim.ScheduleAfter(Duration::Seconds(2), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_TRUE(sim.Cancel(handle));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_FALSE(sim.Cancel(handle));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(sim.events_processed(), 1);
}

TEST(SimulatorTest, CancelDuringCallbackExecution) {
  Simulator sim;
  bool victim_ran = false;
  EventHandle victim;
  // Both events share a timestamp; the first callback cancels the second
  // while the event loop is mid-dispatch.
  sim.ScheduleAfter(Duration::Seconds(1),
                    [&] { EXPECT_TRUE(sim.Cancel(victim)); });
  victim = sim.ScheduleAfter(Duration::Seconds(1), [&] { victim_ran = true; });
  sim.Run();
  EXPECT_FALSE(victim_ran);
  EXPECT_EQ(sim.events_processed(), 1);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, CallbackCancellingItsOwnHandleIsNoop) {
  Simulator sim;
  auto handle = std::make_shared<EventHandle>();
  bool ran = false;
  *handle = sim.ScheduleAfter(Duration::Seconds(1), [&, handle] {
    ran = true;
    // The event is already executing, so its handle is dead.
    EXPECT_FALSE(sim.Cancel(*handle));
  });
  sim.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, DefaultConstructedHandleIsInvalidAndUncancellable) {
  Simulator sim;
  EventHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_FALSE(sim.Cancel(handle));
  // Repeated attempts stay no-ops even with traffic in the queue.
  sim.ScheduleAfter(Duration::Seconds(1), [] {});
  EXPECT_FALSE(sim.Cancel(handle));
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, FifoOrderSurvivesCancellationAtEqualTimestamps) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(sim.ScheduleAfter(
        Duration::Seconds(1), [&order, i] { order.push_back(i); }));
  }
  // Cancel a prefix element, a middle run, and the tail; the survivors
  // must still fire in schedule order.
  EXPECT_TRUE(sim.Cancel(handles[0]));
  EXPECT_TRUE(sim.Cancel(handles[4]));
  EXPECT_TRUE(sim.Cancel(handles[5]));
  EXPECT_TRUE(sim.Cancel(handles[9]));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 6, 7, 8}));
  EXPECT_EQ(sim.events_processed(), 6);
}

TEST(SimulatorTest, RescheduleAfterCancelKeepsFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAfter(Duration::Seconds(1), [&] { order.push_back(0); });
  EventHandle cancelled =
      sim.ScheduleAfter(Duration::Seconds(1), [&] { order.push_back(1); });
  EXPECT_TRUE(sim.Cancel(cancelled));
  // Scheduled after the cancellation, so it must fire last at the shared
  // timestamp even though a slot "freed up" earlier in the queue.
  sim.ScheduleAfter(Duration::Seconds(1), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(SimulatorTest, RunUntilSkipsCancelledBoundaryEvent) {
  Simulator sim;
  bool ran = false;
  EventHandle handle =
      sim.ScheduleAfter(Duration::Seconds(1), [&] { ran = true; });
  EXPECT_TRUE(sim.Cancel(handle));
  EXPECT_TRUE(sim.RunUntil(SimTime::Zero() + Duration::Seconds(1)).ok());
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.Now(), SimTime::Zero() + Duration::Seconds(1));
}

TEST(SimulatorTest, CancelWhileStagedFifo) {
  // Step() fires one event of an equal-timestamp batch, leaving the rest
  // staged in the engine's current-quantum heap. Cancelling one of those
  // staged events must still suppress it.
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAfter(Duration::Seconds(1), [&] { order.push_back(0); });
  EventHandle staged =
      sim.ScheduleAfter(Duration::Seconds(1), [&] { order.push_back(1); });
  sim.ScheduleAfter(Duration::Seconds(1), [&] { order.push_back(2); });
  ASSERT_TRUE(sim.Step());
  ASSERT_EQ(order, (std::vector<int>{0}));
  EXPECT_TRUE(sim.Cancel(staged));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_EQ(sim.events_cancelled(), 1);
}

TEST(SimulatorTest, CancelWhileStagedPerturbed) {
  // Same shape under tie-break perturbation: the batch is pre-permuted
  // into the ready queue, so a cancel must catch the event there too.
  // Cancel every staged survivor, so the check is order-independent.
  Simulator sim;
  sim.EnableTieBreakPerturbation(42);
  int fired = 0;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(
        sim.ScheduleAfter(Duration::Seconds(1), [&] { ++fired; }));
  }
  ASSERT_TRUE(sim.Step());
  ASSERT_EQ(fired, 1);
  int cancelled = 0;
  for (EventHandle& handle : handles) {
    if (sim.Cancel(handle)) {
      ++cancelled;
    }
  }
  EXPECT_EQ(cancelled, 7);  // All but the one that already fired.
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, EventsAcrossWheelHorizonFireInOrder) {
  // The hierarchical wheel covers ~6.5 simulated days (2^49 ns); events
  // beyond that live in an overflow heap until the cursor approaches.
  // One event at the last wheel-reachable quantum and one just past the
  // horizon must still fire in time order.
  constexpr int64_t kHorizonNanos = int64_t{1} << 49;
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(SimTime::FromNanos(kHorizonNanos),
                 [&] { order.push_back(2); });
  sim.ScheduleAt(SimTime::FromNanos(kHorizonNanos - 512),
                 [&] { order.push_back(1); });
  sim.ScheduleAt(SimTime::FromNanos(kHorizonNanos + 512),
                 [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), SimTime::FromNanos(kHorizonNanos + 512));
}

TEST(SimulatorTest, FarFutureEventsFireInTimeOrder) {
  // A random spread over ~30 simulated days crosses several top-level
  // wheel prefixes; every overflow drain and cascade must preserve global
  // time order.
  constexpr int64_t kThirtyDaysNanos =
      int64_t{30} * 24 * 3600 * 1000000000;
  Simulator sim;
  Rng rng(11);
  std::vector<int64_t> fired;
  for (int i = 0; i < 2000; ++i) {
    const int64_t at = rng.UniformInt(0, kThirtyDaysNanos);
    sim.ScheduleAt(SimTime::FromNanos(at),
                   [&fired, &sim] { fired.push_back(sim.Now().nanos()); });
  }
  sim.Run();
  ASSERT_EQ(fired.size(), 2000u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(SimulatorTest, RunUntilLandingMidSlotFiresOnlyDueEvents) {
  // 100 ns and 300 ns share one wheel quantum (512 ns). Stopping at
  // 200 ns must fire only the first, pin Now() to the boundary, and leave
  // the second to fire at its own time afterwards.
  Simulator sim;
  std::vector<int64_t> fired;
  sim.ScheduleAt(SimTime::FromNanos(100),
                 [&] { fired.push_back(sim.Now().nanos()); });
  sim.ScheduleAt(SimTime::FromNanos(300),
                 [&] { fired.push_back(sim.Now().nanos()); });
  ASSERT_TRUE(sim.RunUntil(SimTime::FromNanos(200)).ok());
  EXPECT_EQ(fired, (std::vector<int64_t>{100}));
  EXPECT_EQ(sim.Now(), SimTime::FromNanos(200));
  sim.Run();
  EXPECT_EQ(fired, (std::vector<int64_t>{100, 300}));
  EXPECT_EQ(sim.Now(), SimTime::FromNanos(300));
}

TEST(SimulatorTest, RearmCurrentAfterRefiresSameRecord) {
  Simulator sim;
  int fired = 0;
  InlineCallback tick;
  EventHandle handle;
  tick = [&] {
    if (++fired < 3) {
      handle = sim.RearmCurrentAfter(Duration::Seconds(1));
    }
  };
  handle = sim.ScheduleAfter(Duration::Seconds(1), [&] { tick(); });
  sim.Run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.Now(), SimTime::Zero() + Duration::Seconds(3));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, RearmedHandleIsCancellable) {
  Simulator sim;
  int fired = 0;
  InlineCallback tick;
  EventHandle handle;
  tick = [&] {
    ++fired;
    handle = sim.RearmCurrentAfter(Duration::Seconds(1));
  };
  handle = sim.ScheduleAfter(Duration::Seconds(1), [&] { tick(); });
  ASSERT_TRUE(sim.RunFor(Duration::SecondsF(2.5)).ok());
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(sim.Cancel(handle));
  sim.Run();
  EXPECT_EQ(fired, 2);
}

// The label memo is keyed by the caller's (data pointer, length): a reused
// buffer whose text changes in place keeps both, so only the byte
// comparison tells its labels apart.
TEST(SimulatorTest, LabelMemoComparesBytes) {
  Simulator sim;
  sim.RecordFiredEvents(SimTime::Zero(), SimTime::Max());
  std::string label = "memo.label.0";  // Inline (SSO): the buffer stays put.
  const char* const data = label.data();
  for (int i = 0; i < 4; ++i) {
    label.back() = static_cast<char>('0' + i);
    ASSERT_EQ(label.data(), data);
    sim.ScheduleAfter(Duration::Micros(i), [] {}, label);
  }
  sim.Run();
  ASSERT_EQ(sim.fired_events().size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sim.fired_events()[static_cast<size_t>(i)].label,
              "memo.label." + std::to_string(i));
  }
}

TEST(PeriodicTaskTest, FiresOnPeriod) {
  Simulator sim;
  int fired = 0;
  PeriodicTask task(&sim, Duration::Seconds(1), [&] { ++fired; });
  task.Start();
  ASSERT_TRUE(sim.RunFor(Duration::SecondsF(5.5)).ok());
  EXPECT_EQ(fired, 5);
  task.Stop();
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(5)).ok());
  EXPECT_EQ(fired, 5);
}

TEST(PeriodicTaskTest, StartIsIdempotent) {
  Simulator sim;
  int fired = 0;
  PeriodicTask task(&sim, Duration::Seconds(1), [&] { ++fired; });
  task.Start();
  task.Start();
  ASSERT_TRUE(sim.RunFor(Duration::SecondsF(2.5)).ok());
  EXPECT_EQ(fired, 2);
}

TEST(PeriodicTaskTest, CallbackMayStopTask) {
  Simulator sim;
  int fired = 0;
  PeriodicTask task(&sim, Duration::Seconds(1), [&] {
    if (++fired == 3) {
      task.Stop();
    }
  });
  task.Start();
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(10)).ok());
  EXPECT_EQ(fired, 3);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTaskTest, DestructorCancelsPendingEvent) {
  Simulator sim;
  int fired = 0;
  {
    PeriodicTask task(&sim, Duration::Seconds(1), [&] { ++fired; });
    task.Start();
  }
  ASSERT_TRUE(sim.RunFor(Duration::Seconds(5)).ok());
  EXPECT_EQ(fired, 0);
}

}  // namespace
}  // namespace soccluster
