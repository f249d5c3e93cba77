#include "src/sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>
#include <vector>

#include "src/base/check.h"

namespace soccluster {

Simulator::Simulator(uint64_t seed)
    : events_processed_(obs_.metrics.GetCounter("sim.events_processed")),
      events_cancelled_(obs_.metrics.GetCounter("sim.events_cancelled")),
      max_pending_(obs_.metrics.GetGauge("sim.max_pending_events")),
      max_callback_depth_(obs_.metrics.GetGauge("sim.max_callback_depth")),
      rng_(seed) {
  obs_.tracer.BindClock(&now_);
}

const char* Simulator::InternLabel(std::string_view label) {
  if (label.empty()) {
    return nullptr;
  }
  // The memo is searched by address equality only (never ordered or
  // hashed by address), so which entry holds a label cannot depend on
  // where it lives.
  for (const LabelMemo& memo : label_memo_) {
    if (memo.data == label.data() && memo.size == label.size() &&
        std::memcmp(memo.interned, label.data(), label.size()) == 0) {
      return memo.interned;
    }
  }
  auto it = labels_.find(label);
  if (it == labels_.end()) {
    it = labels_.emplace(label).first;
  }
  LabelMemo& memo = label_memo_[label_memo_next_];
  label_memo_next_ = (label_memo_next_ + 1) % label_memo_.size();
  memo = LabelMemo{label.data(), label.size(), it->c_str()};
  return memo.interned;
}

void Simulator::PushHeap(std::vector<HeapItem>& heap, uint32_t index,
                         SimTime t, uint64_t seq) {
  heap.push_back(HeapItem{t.nanos(), seq, index});
  std::push_heap(heap.begin(), heap.end(), HeapItemAfter{});
}

Simulator::HeapItem Simulator::PopHeap(std::vector<HeapItem>& heap) {
  std::pop_heap(heap.begin(), heap.end(), HeapItemAfter{});
  HeapItem item = heap.back();
  heap.pop_back();
  return item;
}

void Simulator::InsertIndex(uint32_t index, SimTime t, uint64_t seq) {
  const uint64_t tq = QuantumOf(t);
  // At or behind the cursor: the slot already fired (or is firing), so the
  // event goes straight to the staging heap. This also covers RunUntil()
  // peeks that advanced the cursor past `t` before anything at `t` existed.
  if (tq <= cur_tick_) {
    PushHeap(cur_heap_, index, t, seq);
    return;
  }
  const uint64_t diff = tq ^ cur_tick_;
  if ((diff >> (kLevels * kSlotBits)) != 0) {
    // Beyond the wheel horizon; parked until the cursor's top-level prefix
    // catches up (StageNext drains the matching prefix).
    PushHeap(overflow_, index, t, seq);
    return;
  }
  // Highest differing bit picks the level: the event shares the cursor's
  // quantum digits above `level` and differs at digit `level`, so within
  // each level, occupied slot indices are strictly ordered in time.
  const int level = (std::bit_width(diff) - 1) / kSlotBits;
  const uint32_t slot =
      static_cast<uint32_t>(tq >> (level * kSlotBits)) & (kSlots - 1);
  slots_[level][slot].push_back(HeapItem{t.nanos(), seq, index});
  uint64_t& word = occupied_[level][slot >> 6];
  const uint64_t bit = uint64_t{1} << (slot & 63);
  if ((word & bit) == 0) {
    word |= bit;
    ++level_count_[level];
  }
}

bool Simulator::StageNext() {
  while (cur_heap_.empty()) {
    // Lowest occupied level holds the earliest pending wheel event: higher
    // levels differ from the cursor at a more significant quantum digit.
    int level = -1;
    uint32_t slot = 0;
    for (int l = 0; l < kLevels && level < 0; ++l) {
      if (level_count_[l] == 0) {
        continue;
      }
      for (uint32_t w = 0; w < kSlots / 64; ++w) {
        if (occupied_[l][w] != 0) {
          slot = w * 64 +
                 static_cast<uint32_t>(std::countr_zero(occupied_[l][w]));
          level = l;
          break;
        }
      }
    }
    if (level < 0) {
      if (overflow_.empty()) {
        return false;
      }
      // Jump the cursor to the overflow minimum, then pull in everything
      // that now shares its top-level prefix (the heap is time-ordered, so
      // the matching items are exactly its prefix).
      cur_tick_ = QuantumOf(SimTime::FromNanos(overflow_.front().time_ns));
      const uint64_t prefix = cur_tick_ >> (kLevels * kSlotBits);
      while (!overflow_.empty() &&
             (QuantumOf(SimTime::FromNanos(overflow_.front().time_ns)) >>
              (kLevels * kSlotBits)) == prefix) {
        const HeapItem item = PopHeap(overflow_);
        InsertIndex(item.index, SimTime::FromNanos(item.time_ns), item.seq);
      }
      continue;
    }
    std::vector<HeapItem>& bucket = slots_[level][slot];
    occupied_[level][slot >> 6] &= ~(uint64_t{1} << (slot & 63));
    --level_count_[level];
    if (level == 0) {
      // A level-0 slot is one quantum: everything in it is due now. Steal
      // the whole bucket (cur_heap_ is empty) and heapify in one pass.
      const uint64_t mask = ~uint64_t{kSlots - 1};
      cur_tick_ = (cur_tick_ & mask) | slot;
      cur_heap_.swap(bucket);
      std::make_heap(cur_heap_.begin(), cur_heap_.end(), HeapItemAfter{});
      return true;
    }
    // Cascade: advance the cursor to the slot's earliest event and re-place
    // the slot's contents — each lands at a lower level (it shares the new
    // cursor's digit at `level`) or on cur_heap_. Buffers recycle through
    // scratch_ so steady-state cascades never reallocate.
    uint64_t min_tq = ~uint64_t{0};
    for (const HeapItem& item : bucket) {
      min_tq = std::min(min_tq,
                        QuantumOf(SimTime::FromNanos(item.time_ns)));
    }
    cur_tick_ = min_tq;
    scratch_.clear();
    scratch_.swap(bucket);
    for (const HeapItem& item : scratch_) {
      InsertIndex(item.index, SimTime::FromNanos(item.time_ns), item.seq);
    }
  }
  return true;
}

uint32_t Simulator::PopNextLive() {
  if (perturb_) {
    for (;;) {
      if (ready_.empty()) {
        FillReadyPerturbed();
      }
      if (ready_.empty()) {
        return kNoEvent;
      }
      const uint32_t index = ready_.front();
      ready_.pop_front();
      // Staged events may have been cancelled by an earlier batch member;
      // the record is freed here, at its container pop.
      if (slab_[index].state == kCancelled) {
        slab_.Free(index);
        continue;
      }
      return index;
    }
  }
  for (;;) {
    if (cur_heap_.empty() && !StageNext()) {
      return kNoEvent;
    }
    const HeapItem item = PopHeap(cur_heap_);
    if (slab_[item.index].state == kCancelled) {
      slab_.Free(item.index);
      continue;
    }
    return item.index;
  }
}

bool Simulator::PeekNextTime(SimTime* t) {
  // Drain the in-flight perturbation batch first (its events are at a
  // timestamp that already fired). Never stage a *new* batch here: staging
  // draws from the perturbation RNG, and a speculative draw for events that
  // then don't fire (RunUntil boundary) would fork the RNG stream.
  if (perturb_) {
    while (!ready_.empty()) {
      const uint32_t index = ready_.front();
      if (slab_[index].state == kCancelled) {
        ready_.pop_front();
        slab_.Free(index);
        continue;
      }
      *t = slab_[index].time;
      return true;
    }
  }
  for (;;) {
    while (!cur_heap_.empty()) {
      const uint32_t index = cur_heap_.front().index;
      if (slab_[index].state == kCancelled) {
        PopHeap(cur_heap_);
        slab_.Free(index);
        continue;
      }
      *t = SimTime::FromNanos(cur_heap_.front().time_ns);
      return true;
    }
    if (!StageNext()) {
      return false;
    }
  }
}

EventHandle Simulator::ScheduleAt(SimTime t, Callback cb) {
  return ScheduleAt(t, std::move(cb), std::string_view(), 0);
}

EventHandle Simulator::ScheduleAt(SimTime t, Callback cb,
                                  std::string_view label,
                                  uint64_t anchor_group) {
  SOC_CHECK_GE(t.nanos(), now_.nanos()) << "scheduling into the past";
  SOC_CHECK(cb != nullptr);
  const uint64_t seq = next_seq_++;
  // Parenthesized aggregate init constructs the record in place — no
  // default-construct-then-assign double write of the hot 80 bytes.
  const Slab<EventRec>::Ref ref = slab_.Allocate(
      t, seq, anchor_group, InternLabel(label), std::move(cb), kPending);
  ++pending_count_;
  max_pending_->SetMax(static_cast<double>(pending_count_));
  InsertIndex(ref.index, t, seq);
  return EventHandle(ref.Pack());
}

EventHandle Simulator::ScheduleAfter(Duration d, Callback cb) {
  SOC_CHECK(!d.IsNegative()) << "negative delay";
  return ScheduleAt(now_ + d, std::move(cb));
}

EventHandle Simulator::ScheduleAfter(Duration d, Callback cb,
                                     std::string_view label,
                                     uint64_t anchor_group) {
  SOC_CHECK(!d.IsNegative()) << "negative delay";
  return ScheduleAt(now_ + d, std::move(cb), label, anchor_group);
}

EventHandle Simulator::RearmCurrentAfter(Duration d) {
  SOC_CHECK(!d.IsNegative()) << "negative delay";
  SOC_CHECK(firing_index_ != kNoEvent)
      << "RearmCurrentAfter outside event dispatch";
  EventRec& rec = slab_[firing_index_];
  SOC_CHECK(rec.state == kFiring) << "event already re-armed this firing";
  const uint64_t seq = next_seq_++;
  rec.time = now_ + d;
  rec.seq = seq;
  rec.state = kPending;
  // Renew invalidates the fired handle; Step() sees the generation moved
  // and leaves the record to its new container instead of freeing it.
  const Slab<EventRec>::Ref ref = slab_.Renew(firing_index_);
  ++pending_count_;
  max_pending_->SetMax(static_cast<double>(pending_count_));
  InsertIndex(firing_index_, rec.time, seq);
  return EventHandle(ref.Pack());
}

void Simulator::EnableTieBreakPerturbation(uint64_t seed) {
  SOC_CHECK_EQ(events_processed(), 0)
      << "perturbation must be enabled before any event fires";
  perturb_ = true;
  perturb_rng_.Seed(seed);
}

void Simulator::RecordFiredEvents(SimTime begin, SimTime end, size_t cap) {
  record_events_ = true;
  record_begin_ = begin;
  record_end_ = end;
  record_cap_ = cap;
  fired_events_.clear();
}

void Simulator::DigestState(StateDigest& digest) const {
  digest.Mix(now_.nanos());
  digest.Mix(next_seq_);
  digest.Mix(events_processed());
  digest.Mix(events_cancelled());
  // Fold pending events by fire time, not id or slot: ids encode scheduling
  // order (exactly the bookkeeping the tie-break perturbation permutes) and
  // slot assignment encodes allocation history, and two order-swapped but
  // equivalent schedules must digest equal.
  StateDigest::Unordered pending;
  slab_.ForEachLive([&pending](uint32_t /*index*/, const EventRec& rec) {
    if (rec.state == kPending) {
      pending.Add(StateDigest::HashOf(rec.time.nanos()));
    }
  });
  digest.Mix(pending);
  digest.Mix(rng_.StateFingerprint());
}

bool Simulator::Cancel(EventHandle handle) {
  if (!handle.valid()) {
    return false;
  }
  // Only a live pending event may be cancelled: a stale handle (fired,
  // freed, or re-armed — the generation moved on) and an already-cancelled
  // or currently-firing record must stay no-ops, or pending_events() and
  // future pops would see phantom cancellations.
  const Slab<EventRec>::Ref ref = Slab<EventRec>::Ref::Unpack(handle.id());
  if (!slab_.IsLive(ref)) {
    return false;
  }
  EventRec& rec = slab_[ref.index];
  if (rec.state != kPending) {
    return false;
  }
  // Lazy cancellation: the record stays in its container (wheel slot,
  // heap, or staged batch) and is freed when popped.
  rec.state = kCancelled;
  --pending_count_;
  events_cancelled_->Increment();
  return true;
}

void Simulator::FillReadyPerturbed() {
  // Perturbation mode: stage the whole equal-timestamp batch and dispatch
  // it in a seeded permutation. Events a batch member schedules at the same
  // timestamp join a *later* batch (they cannot fire before their cause, so
  // any interleaving the permutation skips is still a valid tie-break).
  SimTime batch_time;
  bool found = false;
  for (;;) {
    // Find the first live event without consuming it (cancelled heads are
    // freed along the way).
    while (!cur_heap_.empty()) {
      const uint32_t index = cur_heap_.front().index;
      if (slab_[index].state == kCancelled) {
        PopHeap(cur_heap_);
        slab_.Free(index);
        continue;
      }
      batch_time = SimTime::FromNanos(cur_heap_.front().time_ns);
      found = true;
      break;
    }
    if (found || !StageNext()) {
      break;
    }
  }
  if (!found) {
    return;
  }
  // Equal-timestamp events share a quantum, so by the time the first is on
  // the staging heap the rest are too; heap pops yield them seq-ascending,
  // matching the FIFO order the old priority queue fed this permutation.
  std::vector<uint32_t> batch;
  while (!cur_heap_.empty() &&
         cur_heap_.front().time_ns == batch_time.nanos()) {
    const HeapItem item = PopHeap(cur_heap_);
    if (slab_[item.index].state == kCancelled) {
      slab_.Free(item.index);
      continue;
    }
    batch.push_back(item.index);
  }
  // Seeded Fisher-Yates permutation.
  for (size_t i = batch.size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(
        perturb_rng_.UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap(batch[i - 1], batch[j]);
  }
  // Seq-anchored events keep their mutual FIFO order: members of each
  // anchor group are re-sorted by seq across the permuted positions the
  // group landed on, so only their interleaving with *other* events moves.
  std::vector<size_t> positions;
  std::vector<uint64_t> seen_groups;
  for (size_t i = 0; i < batch.size(); ++i) {
    const uint64_t group = slab_[batch[i]].anchor_group;
    if (group == 0 ||
        std::find(seen_groups.begin(), seen_groups.end(), group) !=
            seen_groups.end()) {
      continue;
    }
    seen_groups.push_back(group);
    positions.clear();
    for (size_t j = i; j < batch.size(); ++j) {
      if (slab_[batch[j]].anchor_group == group) {
        positions.push_back(j);
      }
    }
    std::vector<uint32_t> members;
    members.reserve(positions.size());
    for (const size_t pos : positions) {
      members.push_back(batch[pos]);
    }
    std::sort(members.begin(), members.end(),
              [this](uint32_t a, uint32_t b) {
                return slab_[a].seq < slab_[b].seq;
              });
    for (size_t k = 0; k < positions.size(); ++k) {
      batch[positions[k]] = members[k];
    }
  }
  for (const uint32_t index : batch) {
    ready_.push_back(index);
  }
}

bool Simulator::Step() {
  const uint32_t index = PopNextLive();
  if (index == kNoEvent) {
    return false;
  }
  EventRec& rec = slab_[index];
  // Determinism contract (simulator.h): fired events never run backwards
  // in time; under FIFO they are strictly ordered by (time, seq) —
  // equal-timestamp events fire in schedule order. Perturbation mode
  // deliberately reorders equal-timestamp events, so only the time
  // invariant holds there.
  SOC_CHECK_GE(rec.time.nanos(), last_fired_time_.nanos())
      << "event queue fired out of time order";
  SOC_DCHECK(perturb_ || rec.time > last_fired_time_ ||
             rec.seq > last_fired_seq_)
      << "FIFO tie-break violated: seq " << rec.seq << " after "
      << last_fired_seq_;
  last_fired_time_ = rec.time;
  last_fired_seq_ = rec.seq;
  --pending_count_;
  now_ = rec.time;
  events_processed_->Increment();
  if (record_events_ && rec.time >= record_begin_ &&
      rec.time <= record_end_ && fired_events_.size() < record_cap_) {
    fired_events_.push_back(FiredEvent{
        rec.time, rec.seq,
        rec.label != nullptr ? std::string(rec.label) : std::string()});
  }
  rec.state = kFiring;
  // Save/restore around re-entry: a callback may drive the simulator
  // itself (RunUntil), firing nested events.
  const uint32_t saved_firing = firing_index_;
  firing_index_ = index;
  const uint32_t gen_at_fire = slab_.gen(index);
  ++callback_depth_;
  max_callback_depth_->SetMax(static_cast<double>(callback_depth_));
  rec.callback();  // Chunk addresses are stable; `rec` survives schedules.
  --callback_depth_;
  firing_index_ = saved_firing;
  // Unchanged generation means the callback did not re-arm the record, so
  // this pop still owns it. (A re-armed record belongs to its new
  // container — even if a nested run already fired or freed it again.)
  if (slab_.gen(index) == gen_at_fire) {
    slab_.Free(index);
  }
  return true;
}

void Simulator::Run() {
  while (Step()) {
  }
}

Status Simulator::RunUntil(SimTime t) {
  if (t < now_) {
    return Status::InvalidArgument("RunUntil target is in the past");
  }
  // PeekNextTime never stages a perturbation batch speculatively: ready_
  // may only hold events at the currently-firing timestamp. If this loop
  // staged a future batch and then returned with now_ = t before it,
  // events scheduled after the return could legally precede the staged
  // batch — and would fire out of order behind it. (Staging onto the
  // (time, seq) heap is safe: later inserts behind the cursor join it and
  // sort correctly.)
  for (;;) {
    SimTime next;
    if (!PeekNextTime(&next) || next > t) {
      break;
    }
    Step();
  }
  now_ = t;
  return Status::Ok();
}

Status Simulator::RunFor(Duration d) { return RunUntil(now_ + d); }

PeriodicTask::PeriodicTask(Simulator* sim, Duration period,
                           Simulator::Callback cb, std::string label)
    : sim_(sim), period_(period), callback_(std::move(cb)),
      label_(std::move(label)) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK_GT(period_.nanos(), 0);
}

PeriodicTask::~PeriodicTask() { Stop(); }

void PeriodicTask::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  Arm();
}

void PeriodicTask::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  sim_->Cancel(pending_);
  pending_ = EventHandle();
}

void PeriodicTask::Arm() {
  pending_ = sim_->ScheduleAfter(period_, [this] { Tick(); }, label_);
}

void PeriodicTask::Tick() {
  if (!running_) {
    return;
  }
  // Re-arm before running the callback so the callback may Stop() us.
  // Re-arming the firing record in place skips the slab/intern round trip
  // a fresh ScheduleAfter would pay; it consumes one sequence number, just
  // like the schedule-per-tick formulation, so digests are unchanged.
  pending_ = sim_->RearmCurrentAfter(period_);
  callback_();
}

}  // namespace soccluster
