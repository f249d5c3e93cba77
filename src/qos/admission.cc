#include "src/qos/admission.h"

#include <utility>

#include "src/base/check.h"

namespace soccluster {

const char* AdmissionQueue::DropReasonName(DropReason reason) {
  switch (reason) {
    case DropReason::kQueueFull:
      return "queue_full";
    case DropReason::kAdmitFloor:
      return "admit_floor";
    case DropReason::kExpired:
      return "expired";
  }
  return "unknown";
}

AdmissionQueue::AdmissionQueue(Simulator* sim, const std::string& service)
    : sim_(sim) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK(!service.empty());
  MetricRegistry& metrics = sim_->metrics();
  for (int c = 0; c < kNumPriorities; ++c) {
    const char* cls = PriorityName(static_cast<Priority>(c));
    admitted_metrics_[c] = metrics.GetCounter(
        "qos.admission.admitted",
        {{"service", service}, {"class", cls}});
    for (size_t r = 0; r < kNumReasons; ++r) {
      dropped_metrics_[c][r] = metrics.GetCounter(
          "qos.admission.dropped",
          {{"service", service},
           {"class", cls},
           {"reason", DropReasonName(static_cast<DropReason>(r))}});
    }
  }
  max_queue_metric_ = metrics.GetGauge("qos.admission.max_queue_length",
                                       {{"service", service}});
  sojourn_metric_ = metrics.GetHistogram("qos.admission.sojourn_ms",
                                         {{"service", service}});
}

void AdmissionQueue::SetMaxQueue(int max_queue) {
  SOC_CHECK_GE(max_queue, 0);
  max_queue_ = max_queue;
}

std::optional<Priority> AdmissionQueue::LowestOccupiedClass() const {
  for (int c = kNumPriorities - 1; c >= 0; --c) {
    if (!classes_[static_cast<size_t>(c)].empty()) {
      return static_cast<Priority>(c);
    }
  }
  return std::nullopt;
}

void AdmissionQueue::Drop(const Item& item, DropReason reason) {
  if (on_drop_) {
    on_drop_(item, reason);
  }
  ++dropped_;
  ++dropped_by_reason_[static_cast<size_t>(reason)];
  dropped_metrics_[static_cast<size_t>(item.priority)]
                  [static_cast<size_t>(reason)]
      ->Increment();
}

void AdmissionQueue::NoteQueued() {
  if (size_ > max_queue_length_) {
    max_queue_length_ = size_;
    max_queue_metric_->Set(static_cast<double>(size_));
  }
}

bool AdmissionQueue::Offer(Priority priority, Duration deadline,
                           uint64_t handle, const RequestContext* ctx) {
  Item item;
  item.priority = priority;
  item.enqueue = sim_->Now();
  item.deadline = deadline;
  item.handle = handle;
  if (priority > admit_floor_) {
    Drop(item, DropReason::kAdmitFloor);
    return false;
  }
  if (max_queue_ > 0 && size_ >= max_queue_) {
    // Full. Evict the newest item of a strictly lower class to make room;
    // if no lower class is occupied, the incoming item is the one shed.
    const std::optional<Priority> lowest = LowestOccupiedClass();
    if (!lowest.has_value() || *lowest <= priority) {
      Drop(item, DropReason::kQueueFull);
      return false;
    }
    std::deque<Item>& victims = ByClass(*lowest);
    Drop(victims.back(), DropReason::kQueueFull);
    victims.pop_back();
    --size_;
  }
  ByClass(priority).push_back(std::move(item));
  ++size_;
  ++admitted_;
  admitted_metrics_[static_cast<size_t>(priority)]->Increment();
  NoteQueued();
  TraceRequestStep(&sim_->tracer(), ctx, "admit");
  return true;
}

void AdmissionQueue::Restore(Item item) {
  const Priority priority = item.priority;
  ByClass(priority).push_back(std::move(item));
  ++size_;
  NoteQueued();
}

void AdmissionQueue::RestoreFront(Item item) {
  const Priority priority = item.priority;
  ByClass(priority).push_front(std::move(item));
  ++size_;
  NoteQueued();
}

std::optional<AdmissionQueue::Item> AdmissionQueue::Pop() {
  const SimTime now = sim_->Now();
  while (true) {
    // Dispatch candidate: head of the highest occupied class.
    std::deque<Item>* source = nullptr;
    for (int c = 0; c < kNumPriorities; ++c) {
      if (!classes_[static_cast<size_t>(c)].empty()) {
        source = &classes_[static_cast<size_t>(c)];
        break;
      }
    }
    if (source == nullptr) {
      return std::nullopt;
    }
    if (Expired(source->front(), now)) {
      Item expired = std::move(source->front());
      source->pop_front();
      --size_;
      Drop(expired, DropReason::kExpired);
      continue;
    }
    Item item = std::move(source->front());
    source->pop_front();
    --size_;
    sojourn_metric_->Observe((now - item.enqueue).ToMillis());
    return item;
  }
}

void AdmissionQueue::DigestState(StateDigest& digest) const {
  digest.Mix(static_cast<int>(admit_floor_));
  digest.Mix(max_queue_);
  for (const auto& cls : classes_) {
    digest.Mix(static_cast<uint64_t>(cls.size()));
    for (const Item& item : cls) {
      digest.Mix(static_cast<int>(item.priority));
      digest.Mix(item.enqueue.nanos());
      digest.Mix(item.deadline.nanos());
    }
  }
  digest.Mix(size_);
  digest.Mix(max_queue_length_);
  digest.Mix(admitted_);
  digest.Mix(dropped_);
  for (const int64_t count : dropped_by_reason_) {
    digest.Mix(count);
  }
}

}  // namespace soccluster
