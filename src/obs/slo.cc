#include "src/obs/slo.h"

#include <fstream>
#include <utility>

#include "src/base/check.h"
#include "src/obs/json.h"

namespace soccluster {

namespace {

// The multi-window burn-rate rule every tracker evaluates. The slow window
// is a ring of kBuckets buckets; the fast window reads a suffix of it.
constexpr Duration kFastWindow = Duration::Seconds(30);
constexpr Duration kSlowWindow = Duration::Minutes(2);
constexpr double kBurnThreshold = 3.0;
constexpr int kBuckets = 60;
constexpr int64_t kBucketNanos = kSlowWindow.nanos() / kBuckets;

}  // namespace

SloTracker::SloTracker(SloSpec spec) : spec_(std::move(spec)) {
  SOC_CHECK(!spec_.name.empty()) << "SloSpec needs a name";
  SOC_CHECK(spec_.objective > 0.0 && spec_.objective < 1.0)
      << "SLO objective must be in (0, 1): " << spec_.name;
  // One extra slot so the bucket being filled never evicts the oldest
  // bucket still inside the slow window.
  ring_.resize(static_cast<size_t>(kBuckets) + 1);
}

SloTracker::Bucket* SloTracker::BucketFor(SimTime now) {
  const int64_t epoch = now.nanos() / kBucketNanos;
  Bucket& slot = ring_[static_cast<size_t>(epoch % static_cast<int64_t>(
      ring_.size()))];
  if (slot.epoch != epoch) {
    slot.epoch = epoch;
    slot.good = 0;
    slot.bad = 0;
  }
  return &slot;
}

void SloTracker::WindowCounts(SimTime now, Duration window, int64_t* good,
                              int64_t* bad) const {
  *good = 0;
  *bad = 0;
  const int64_t epoch_now = now.nanos() / kBucketNanos;
  int64_t span = window.nanos() / kBucketNanos;
  if (span < 1) {
    span = 1;
  }
  const int64_t oldest = epoch_now - span + 1;
  for (const Bucket& slot : ring_) {
    if (slot.epoch >= oldest && slot.epoch <= epoch_now) {
      *good += slot.good;
      *bad += slot.bad;
    }
  }
}

double SloTracker::BurnRate(SimTime now, Duration window) const {
  int64_t good = 0;
  int64_t bad = 0;
  WindowCounts(now, window, &good, &bad);
  return Burn(good, bad);
}

double SloTracker::Burn(int64_t good, int64_t bad) const {
  const int64_t total = good + bad;
  if (total == 0) {
    return 0.0;
  }
  const double bad_fraction =
      static_cast<double>(bad) / static_cast<double>(total);
  const double error_budget = 1.0 - spec_.objective;
  return bad_fraction / error_budget;
}

void SloTracker::Record(SimTime now, bool good) {
  Bucket* slot = BucketFor(now);
  if (good) {
    ++slot->good;
    ++good_total_;
  } else {
    ++slot->bad;
    ++bad_total_;
  }
  // The bucket is the newest of both windows at its own epoch, and any
  // bucket BucketFor() evicted lies 61k epochs away, outside both; a cache
  // for another epoch is rebuilt by the Advance() below.
  if (slot->epoch == cached_epoch_) {
    ++(good ? fast_.good : fast_.bad);
    ++(good ? slow_.good : slow_.bad);
  }
  Advance(now);
}

void SloTracker::Advance(SimTime now) {
  const int64_t epoch = now.nanos() / kBucketNanos;
  if (epoch != cached_epoch_) {
    WindowCounts(now, kFastWindow, &fast_.good, &fast_.bad);
    WindowCounts(now, kSlowWindow, &slow_.good, &slow_.bad);
    cached_epoch_ = epoch;
  }
  const double fast = Burn(fast_.good, fast_.bad);
  const double slow = Burn(slow_.good, slow_.bad);
  const bool over = fast >= kBurnThreshold && slow >= kBurnThreshold;
  const bool under = fast < kBurnThreshold && slow < kBurnThreshold;
  if (!firing_ && over) {
    firing_ = true;
    alerts_.push_back(SloAlert{now, true, fast, slow});
  } else if (firing_ && under) {
    firing_ = false;
    alerts_.push_back(SloAlert{now, false, fast, slow});
  }
}

SloTracker* SloEngine::Register(const SloSpec& spec) {
  if (SloTracker* existing = Find(spec.name)) {
    return existing;
  }
  trackers_.push_back(std::make_unique<SloTracker>(spec));
  return trackers_.back().get();
}

SloTracker* SloEngine::Find(std::string_view name) {
  for (const auto& tracker : trackers_) {
    if (tracker->spec().name == name) {
      return tracker.get();
    }
  }
  return nullptr;
}

const SloTracker* SloEngine::Find(std::string_view name) const {
  return const_cast<SloEngine*>(this)->Find(name);
}

void SloEngine::Advance(SimTime now) {
  for (const auto& tracker : trackers_) {
    tracker->Advance(now);
  }
}

SloAlertTally SloEngine::TallyAlerts(SimTime now) {
  Advance(now);
  SloAlertTally tally;
  for (const auto& tracker : trackers_) {
    tally.firing_at_end += tracker->firing() ? 1 : 0;
    for (const SloAlert& alert : tracker->alerts()) {
      ++(alert.firing ? tally.fired : tally.cleared);
    }
  }
  return tally;
}

void SloEngine::WriteJson(std::ostream& out, SimTime now) const {
  JsonWriter w(&out);
  w.BeginObject();
  w.KeyValue("time_s", now.ToSeconds());
  w.Key("slos");
  w.BeginArray();
  for (const auto& tracker : trackers_) {
    const SloSpec& spec = tracker->spec();
    w.BeginObject();
    w.KeyValue("name", std::string_view(spec.name));
    w.KeyValue("service", std::string_view(spec.service));
    w.KeyValue("class", std::string_view(spec.class_name));
    if (!spec.cohort.empty()) {
      w.KeyValue("cohort", std::string_view(spec.cohort));
    }
    w.KeyValue("threshold_ms", spec.threshold.ToMillis());
    w.KeyValue("objective", spec.objective);
    w.KeyValue("fast_window_s", kFastWindow.ToSeconds());
    w.KeyValue("slow_window_s", kSlowWindow.ToSeconds());
    w.KeyValue("burn_threshold", kBurnThreshold);
    w.KeyValue("good", tracker->good_total());
    w.KeyValue("bad", tracker->bad_total());
    w.KeyValue("firing", tracker->firing());
    w.KeyValue("fast_burn", tracker->BurnRate(now, kFastWindow));
    w.KeyValue("slow_burn", tracker->BurnRate(now, kSlowWindow));
    w.Key("alerts");
    w.BeginArray();
    for (const SloAlert& alert : tracker->alerts()) {
      w.BeginObject();
      w.KeyValue("time_s", alert.time.ToSeconds());
      w.KeyValue("type", alert.firing ? "fire" : "clear");
      w.KeyValue("fast_burn", alert.fast_burn);
      w.KeyValue("slow_burn", alert.slow_burn);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  out << "\n";
}

Status SloEngine::WriteJsonFile(const std::string& path, SimTime now) const {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::InvalidArgument("cannot open slo output file " + path);
  }
  WriteJson(out, now);
  out.flush();
  if (!out.good()) {
    return Status::Internal("failed writing slo timeline to " + path);
  }
  return Status::Ok();
}

}  // namespace soccluster
