// Discrete-event simulation core.
//
// Single-threaded, callback-driven, deterministic: events at equal timestamps
// fire in the order they were scheduled (FIFO tie-break on a monotonically
// increasing sequence number), so a given seed always produces identical runs.
//
// Determinism contract (audited by src/sim/determinism.h): simulation
// results must not depend on the FIFO tie-break — equal-timestamp events
// must commute, unless they share an anchor group, which pins their
// relative order by construction. EnableTieBreakPerturbation() dispatches
// equal-timestamp events in a seeded permutation instead of FIFO order; a
// run whose state digests differ under permutation has a virtual-time
// ordering race.
//
// Engine internals (see DESIGN.md "Engine internals" for the full layout):
// event records live in a slab arena (src/base/slab.h) and are referenced
// by index everywhere — the priority queue of fat events is gone. Handles
// are generation-counted slab refs, so Cancel() is an O(1) generation
// check with no hash lookups; callbacks are small-buffer-optimized
// (src/base/callback.h) so typical capture lists never allocate; labels
// are interned so events carry a pointer, not a std::string, and a small
// memo keyed by the label's address spares a repeated label its hash (see
// ScheduleAt). Pending events sit in a hierarchical timing wheel (5
// levels x 256 slots of 512 ns base granularity, ~6.5 simulated days of
// horizon) with a binary-heap overflow tier for far-future events; the
// wheel advances by jumping to the next occupied slot, staging its events
// on a small (time, seq) heap that restores exact FIFO order.
//
// Each Simulator owns an Observability context (metrics registry + tracer,
// src/obs/obs.h). Components reach it through obs(); the engine itself
// publishes its health counters there (sim.events_processed,
// sim.events_cancelled, sim.max_pending_events, sim.max_callback_depth).
// Recording is passive — tracing on or off never changes a run's results.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/base/callback.h"
#include "src/base/digest.h"
#include "src/base/result.h"
#include "src/base/rng.h"
#include "src/base/slab.h"
#include "src/base/units.h"
#include "src/obs/obs.h"

namespace soccluster {

// Identifies a scheduled event for cancellation. Default-constructed handles
// are invalid. A handle is a packed generation-counted slab ref: it goes
// stale the moment its event fires or is cancelled, and a stale handle can
// never alias a later event that reuses the slot.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return id_ != 0; }
  uint64_t id() const { return id_; }

 private:
  friend class Simulator;
  explicit EventHandle(uint64_t id) : id_(id) {}
  uint64_t id_ = 0;
};

// The event loop. Owns simulated time, a deterministic RNG, and the
// observability context.
class Simulator {
 public:
  using Callback = InlineCallback;

  // A fired event as captured by the divergence-report record window.
  struct FiredEvent {
    SimTime time;
    uint64_t seq = 0;
    std::string label;  // Empty for unlabeled events.
  };

  explicit Simulator(uint64_t seed = 1);
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }
  Rng& rng() { return rng_; }

  Observability& obs() { return obs_; }
  const Observability& obs() const { return obs_; }
  Tracer& tracer() { return obs_.tracer; }
  MetricRegistry& metrics() { return obs_.metrics; }

  // Schedules `cb` to run at absolute time `t` (must be >= Now()).
  // `label` names the event in divergence reports. Labels are interned and
  // must be static-ish ("service.arrival", not one string per request):
  // a dynamic label would grow the intern table without bound and pay a
  // hash+copy on the hot path. tools/lint.py's `hot-label` rule enforces
  // this at call sites and requires a label at every call under src/
  // outside the engine. A label scheduled again from the same address
  // costs no hash: a small fixed memo keyed by the label's data pointer
  // and length returns the interned pointer once the bytes compare equal
  // (a reused buffer whose text changed misses), and only a miss consults
  // the intern table. A nonzero `anchor_group` seq-anchors the event:
  // equal-timestamp events sharing a group keep their mutual FIFO order
  // even under tie-break perturbation — the explicit marker for
  // intentionally order-dependent event pairs.
  EventHandle ScheduleAt(SimTime t, Callback cb);
  EventHandle ScheduleAt(SimTime t, Callback cb, std::string_view label,
                         uint64_t anchor_group = 0);
  // Schedules `cb` to run `d` from now (d must be >= 0).
  EventHandle ScheduleAfter(Duration d, Callback cb);
  EventHandle ScheduleAfter(Duration d, Callback cb, std::string_view label,
                            uint64_t anchor_group = 0);

  // Re-arms the event whose callback is currently executing: same record,
  // same callback, same label, fresh sequence number and handle, firing
  // `d` from now. This is the allocation-free fast path for periodic
  // timers (PeriodicTask); callable only while an event is firing, and at
  // most once per firing. Equivalent to scheduling a new event with an
  // identical callback — consumes one sequence number, so digests match
  // the schedule-per-tick formulation bit for bit.
  EventHandle RearmCurrentAfter(Duration d);

  // Allocates a fresh anchor group id (for callers pinning several related
  // event chains together).
  uint64_t NewAnchorGroup() { return next_anchor_group_++; }

  // --- Determinism audit hooks (src/sim/determinism.h) ---

  // Dispatches equal-timestamp events in a seeded permutation instead of
  // FIFO order (anchor groups keep their internal order). Must be called
  // before any event fires; the mode holds for the simulator's lifetime.
  void EnableTieBreakPerturbation(uint64_t seed);
  bool tie_break_perturbed() const { return perturb_; }

  // Records (time, seq, label) of every event fired with
  // begin <= time <= end, up to `cap` events, for divergence reports.
  void RecordFiredEvents(SimTime begin, SimTime end, size_t cap = 1 << 20);
  const std::vector<FiredEvent>& fired_events() const {
    return fired_events_;
  }

  // Mixes all result-bearing engine state: clock, sequence and counter
  // state, the live pending-event set (order-independently), and the RNG
  // fingerprint. Callback identities cannot be digested; scenario state
  // hooks cover what the callbacks would mutate.
  void DigestState(StateDigest& digest) const;

  // Cancels a pending event. Returns true if the event existed and had not
  // yet fired. Cancelling an already-fired, already-cancelled, or invalid
  // handle is a no-op returning false.
  bool Cancel(EventHandle handle);

  // Runs until the event queue is empty.
  void Run();
  // Processes all events with time <= `t`, then advances the clock to `t`.
  // Fails if `t` is in the past.
  Status RunUntil(SimTime t);
  // Convenience: RunUntil(Now() + d).
  Status RunFor(Duration d);
  // Executes exactly one event if any is pending; returns false when idle.
  bool Step();

  // Engine health counters (also exported through obs().metrics).
  int64_t events_processed() const { return events_processed_->value(); }
  int64_t events_cancelled() const { return events_cancelled_->value(); }
  // High-water mark of the pending-event queue.
  int64_t max_pending_events() const {
    return static_cast<int64_t>(max_pending_->value());
  }
  // Deepest nesting of Step() re-entry observed (a callback driving the
  // simulator itself, e.g. via RunUntil, deepens it past 1).
  int64_t max_callback_depth() const {
    return static_cast<int64_t>(max_callback_depth_->value());
  }
  size_t pending_events() const { return pending_count_; }

 private:
  // --- Timing-wheel geometry ---
  // Quantum: 512 ns. One level-0 slot is one quantum; each level above
  // widens slots by 256x. Five levels cover ~6.5 simulated days from the
  // cursor; anything further sits in the overflow heap until the cursor
  // gets close.
  static constexpr int kQuantumBits = 9;
  static constexpr int kSlotBits = 8;
  static constexpr uint32_t kSlots = 1u << kSlotBits;
  static constexpr int kLevels = 5;
  static constexpr uint32_t kNoEvent = 0xffffffffu;

  enum EventState : uint8_t {
    kPending = 0,    // Scheduled; will fire unless cancelled.
    kCancelled = 1,  // Lazily dead; slot freed when its container pops it.
    kFiring = 2,     // Callback currently executing.
  };

  struct EventRec {
    SimTime time;
    uint64_t seq = 0;
    uint64_t anchor_group = 0;  // Nonzero: FIFO-pinned within the group.
    const char* label = nullptr;  // Interned; nullptr when unlabeled.
    Callback callback;
    EventState state = kPending;
  };

  // Heap entry carrying its sort key, so ordering never dereferences the
  // slab. Min-ordered by (time, seq).
  struct HeapItem {
    int64_t time_ns = 0;
    uint64_t seq = 0;
    uint32_t index = 0;
  };
  struct HeapItemAfter {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      if (a.time_ns != b.time_ns) {
        return a.time_ns > b.time_ns;
      }
      return a.seq > b.seq;
    }
  };

  static uint64_t QuantumOf(SimTime t) {
    return static_cast<uint64_t>(t.nanos()) >> kQuantumBits;
  }

  // Interns `label`, returning a stable pointer (nullptr when empty).
  const char* InternLabel(std::string_view label);

  // Places a pending record into the right container: the staging heap
  // for quanta at or behind the cursor, a wheel slot within the horizon,
  // or the overflow heap beyond it.
  void InsertIndex(uint32_t index, SimTime t, uint64_t seq);

  void PushHeap(std::vector<HeapItem>& heap, uint32_t index, SimTime t,
                uint64_t seq);
  HeapItem PopHeap(std::vector<HeapItem>& heap);

  // Advances the wheel cursor to the earliest pending event and stages
  // that event's slot onto cur_heap_. Returns false when no events remain
  // anywhere. Cancelled records encountered along the way are freed.
  bool StageNext();

  // Pops the next live event index in dispatch order (ready batch first,
  // then the staging heap), freeing lazily-cancelled records. Returns
  // kNoEvent when the queue is drained.
  uint32_t PopNextLive();

  // Stores the earliest pending event time in *t (skipping cancelled
  // records); false when the queue is empty. Never fires anything.
  bool PeekNextTime(SimTime* t);

  // Perturbation mode: stages the whole equal-timestamp batch into
  // ready_, permuted by the seeded RNG with anchor groups re-pinned.
  void FillReadyPerturbed();

  // Declared first so instruments outlive every other member.
  Observability obs_;
  SimTime now_;
  uint64_t next_seq_ = 1;
  int callback_depth_ = 0;
  Counter* events_processed_;   // Owned by obs_.metrics.
  Counter* events_cancelled_;   // Owned by obs_.metrics.
  Gauge* max_pending_;          // Owned by obs_.metrics.
  Gauge* max_callback_depth_;   // Owned by obs_.metrics.
  // Sequence number of the event fired most recently; together with now_
  // this witnesses the determinism contract (time, seq) strictly increases
  // across fired events.
  uint64_t last_fired_seq_ = 0;
  SimTime last_fired_time_;

  // Event records; indices below reference this arena. Scheduled but
  // not-yet-fired events (including lazily-cancelled ones awaiting their
  // container pop) stay allocated here.
  Slab<EventRec> slab_;
  size_t pending_count_ = 0;  // Live pending events (excludes cancelled).
  // The record currently executing its callback (kNoEvent outside
  // dispatch); RearmCurrentAfter() targets this.
  uint32_t firing_index_ = kNoEvent;

  // Wheel cursor, in quanta. Invariants: no pending wheel event's quantum
  // is <= cur_tick_ (those live on cur_heap_), and every wheel event
  // shares cur_tick_'s top-level prefix (the rest overflow).
  uint64_t cur_tick_ = 0;
  // Wheel slots carry each event's sort key alongside its index, so
  // cascading and staging never dereference the slab (which would be a
  // cache miss per touch on large pending sets).
  std::array<std::array<std::vector<HeapItem>, kSlots>, kLevels> slots_;
  // One bit per slot; bit set iff the slot vector is nonempty.
  std::array<std::array<uint64_t, kSlots / 64>, kLevels> occupied_{};
  // Occupied-slot count per level: StageNext skips empty levels without
  // scanning their bitmaps.
  std::array<uint32_t, kLevels> level_count_{};
  // Recycled cascade buffer (capacity bounces between slots_ vectors).
  std::vector<HeapItem> scratch_;
  // Staging heap: events at or behind the cursor, min-ordered by
  // (time, seq). Always dispatched before anything still in the wheel.
  std::vector<HeapItem> cur_heap_;
  // Far-future events beyond the wheel horizon, min-ordered by (time, seq).
  std::vector<HeapItem> overflow_;
  // Equal-timestamp batch staged for dispatch under perturbation, already
  // permuted. Entries may still be lazily cancelled while staged.
  std::deque<uint32_t> ready_;

  // Interned event labels; unordered lookup only (never iterated), with
  // stable storage backing EventRec::label pointers. Transparent hashing
  // keeps lookup allocation-free for string_view keys.
  struct LabelHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_set<std::string, LabelHash, std::equal_to<>> labels_;
  // Memo in front of labels_, keyed by the caller's label (data pointer,
  // length); a hit still compares the bytes.
  struct LabelMemo {
    const char* data = nullptr;
    size_t size = 0;
    const char* interned = nullptr;
  };
  std::array<LabelMemo, 16> label_memo_{};
  size_t label_memo_next_ = 0;  // Entry the next miss replaces.

  Rng rng_;
  uint64_t next_anchor_group_ = 1;
  // Tie-break perturbation state (EnableTieBreakPerturbation).
  bool perturb_ = false;
  Rng perturb_rng_;
  // Fired-event record window (RecordFiredEvents).
  bool record_events_ = false;
  SimTime record_begin_;
  SimTime record_end_;
  size_t record_cap_ = 0;
  std::vector<FiredEvent> fired_events_;
};

// Re-runs a callback on a fixed period until stopped. The callback fires
// first at `start + period`. `label` names the tick events in divergence
// reports (determinism audit). Ticks after the first re-arm the fired
// event record in place (Simulator::RearmCurrentAfter), so a steady-state
// periodic timer schedules without allocating.
class PeriodicTask {
 public:
  PeriodicTask(Simulator* sim, Duration period, Simulator::Callback cb,
               std::string label = std::string());
  ~PeriodicTask();
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void Start();
  void Stop();
  bool running() const { return running_; }

 private:
  void Arm();
  void Tick();

  Simulator* sim_;
  Duration period_;
  Simulator::Callback callback_;
  std::string label_;
  EventHandle pending_;
  bool running_ = false;
};

}  // namespace soccluster

#endif  // SRC_SIM_SIMULATOR_H_
