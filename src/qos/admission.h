// Priority-aware admission queue shared by the request-serving services
// (DL serving, serverless, live transcoding). Replaces per-service bare
// length caps with one policy:
//
//   * three priority classes (src/base/priority.h) dispatched strictly
//     highest class first, FIFO within a class;
//   * a length cap that sheds from the *lowest* class — an arriving
//     higher-class item evicts the newest item of a strictly lower class
//     rather than being turned away (critical never sheds for queue-full
//     while any best-effort item is queued);
//   * deadline-expiry purge at dispatch: an item already past its deadline
//     is dropped when it reaches the head instead of burning SoC time;
//   * an admission floor for brownout: classes below the floor are refused
//     at the door while the rung is engaged.
//
// The queue is purely passive — it schedules no events, consumes no
// randomness, and only inspects the clock inside Offer/Pop — so wiring it
// into a service changes nothing about a run unless a policy actually
// triggers. Drop accounting lands in the registry under
// "qos.admission.*" labeled {service, class, reason}.

#ifndef SRC_QOS_ADMISSION_H_
#define SRC_QOS_ADMISSION_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>

#include "src/base/digest.h"
#include "src/base/priority.h"
#include "src/base/units.h"
#include "src/obs/request.h"
#include "src/sim/simulator.h"

namespace soccluster {

class AdmissionQueue {
 public:
  struct Item {
    Priority priority = Priority::kStandard;
    SimTime enqueue;
    Duration deadline;  // Zero: none. Measured from `enqueue`.
    // Opaque owner handle (services pack a slab ref into it).
    uint64_t handle = 0;
  };

  enum class DropReason { kQueueFull, kAdmitFloor, kExpired };
  static const char* DropReasonName(DropReason reason);

  // Runs for every dropped item, before the drop is counted — the owner
  // ends trace spans and does its own bookkeeping here. For kQueueFull and
  // kAdmitFloor drops of the *incoming* item, the item was never queued.
  using DropHandler = std::function<void(const Item&, DropReason)>;

  // `service` is the registry label; required. The queue starts unbounded
  // (see SetMaxQueue).
  AdmissionQueue(Simulator* sim, const std::string& service);
  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  void set_on_drop(DropHandler on_drop) { on_drop_ = std::move(on_drop); }

  // Admits `handle` at `priority`, or sheds it (queue full below the
  // eviction rule, or class below the admission floor). Returns true when
  // the item was queued. When `ctx` is given an "admit" flow point is
  // emitted under the service's category (drops stay the owner's job, via
  // the DropHandler).
  bool Offer(Priority priority, Duration deadline, uint64_t handle,
             const RequestContext* ctx = nullptr);

  // Dispatches the next item: highest class first, FIFO within a class,
  // purging deadline-expired heads on the way. Empty optional when
  // nothing dispatchable remains.
  std::optional<Item> Pop();

  // Re-queues an item at the back of its class, bypassing every admission
  // check (a retried request keeps its original enqueue time and must not
  // be shed at the door twice).
  void Restore(Item item);
  // As Restore, but to the *front* of its class — for peek-style consumers
  // that Pop, fail to place, and put the head back without reordering.
  void RestoreFront(Item item);

  // Brownout hook: refuse classes numerically above `floor` at the door.
  // kBestEffort (the default) admits everything.
  void SetAdmitFloor(Priority floor) { admit_floor_ = floor; }
  Priority admit_floor() const { return admit_floor_; }

  // Reject Offer() when the queue already holds `max_queue` items across
  // all classes (subject to lower-class eviction). Zero: unbounded.
  void SetMaxQueue(int max_queue);

  int size() const { return size_; }
  int SizeOf(Priority priority) const {
    return static_cast<int>(ByClass(priority).size());
  }
  int64_t admitted() const { return admitted_; }
  int64_t dropped() const { return dropped_; }
  int64_t DroppedFor(DropReason reason) const {
    return dropped_by_reason_[static_cast<size_t>(reason)];
  }
  // High-water mark of the total queue length.
  int max_queue_length() const { return max_queue_length_; }

  // Mixes queue contents (per class, in FIFO order) and admission/drop
  // accounting. Handles are opaque and not digested; owners digest their
  // own request state.
  void DigestState(StateDigest& digest) const;

 private:
  static constexpr size_t kNumReasons = 3;

  std::deque<Item>& ByClass(Priority priority) {
    return classes_[static_cast<size_t>(priority)];
  }
  const std::deque<Item>& ByClass(Priority priority) const {
    return classes_[static_cast<size_t>(priority)];
  }
  bool Expired(const Item& item, SimTime now) const {
    return item.deadline.nanos() > 0 && now - item.enqueue > item.deadline;
  }
  // Lowest-priority (numerically highest) class with queued items, or
  // empty when the queue is idle.
  std::optional<Priority> LowestOccupiedClass() const;
  void Drop(const Item& item, DropReason reason);
  void NoteQueued();

  Simulator* sim_;
  int max_queue_ = 0;
  DropHandler on_drop_;
  Priority admit_floor_ = Priority::kBestEffort;
  std::array<std::deque<Item>, kNumPriorities> classes_;
  int size_ = 0;
  int max_queue_length_ = 0;
  int64_t admitted_ = 0;
  int64_t dropped_ = 0;
  std::array<int64_t, kNumReasons> dropped_by_reason_{};

  // Registry instruments: admitted per class, drops per (class, reason),
  // plus a sketch-backed sojourn distribution observed at dispatch.
  std::array<Counter*, kNumPriorities> admitted_metrics_{};
  std::array<std::array<Counter*, kNumReasons>, kNumPriorities>
      dropped_metrics_{};
  Gauge* max_queue_metric_ = nullptr;
  HistogramMetric* sojourn_metric_ = nullptr;
};

}  // namespace soccluster

#endif  // SRC_QOS_ADMISSION_H_
