// Declarative SLOs with multi-window burn-rate alerting over sim time.
//
// An SloSpec states an objective ("99% of serving requests in class 0
// complete under 2 s"); an SloTracker ingests per-request good/bad
// outcomes into a time-bucketed ring and evaluates the Google-SRE-style
// multi-window burn-rate rule:
//
//   burn(window) = bad_fraction(window) / error_budget,
//   error_budget = 1 - objective
//
// An alert FIRES when both the fast window (30 s, quick to react) and the
// slow window (2 min, resistant to blips) burn at >= 3x, and CLEARS when
// both drop below; every tracker uses these constants (src/obs/slo.cc).
// Fire/clear transitions are appended to a deterministic history that
// benches export as the machine-readable alert timeline.
//
// Determinism contract: the engine is record-driven — Record() is called
// from request completion paths and Advance() from bench/test code; the
// engine never schedules simulator events, allocates ids, or otherwise
// touches simulation-visible state, so same-seed digests are bit-identical
// with SLO evaluation on or off.

#ifndef SRC_OBS_SLO_H_
#define SRC_OBS_SLO_H_

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/result.h"
#include "src/base/units.h"

namespace soccluster {

struct SloSpec {
  std::string name;        // Unique, e.g. "dl.serving/critical/latency".
  std::string service;     // Owning subsystem, e.g. "dl.serving".
  std::string class_name;  // Priority class label ("critical", ...).
  // Regional cohort label for client-tier SLOs (src/trace/session.h
  // registers one tracker per cohort). Empty for fleet-wide SLOs; emitted
  // in the JSON export only when set, so pre-cohort outputs are unchanged.
  std::string cohort;

  // Latency objective: a request is "good" iff it completes within
  // `threshold`. Dropped/shed requests are always bad.
  Duration threshold = Duration::Seconds(2);
  // Target good fraction in [0, 1), e.g. 0.99 -> 1% error budget.
  double objective = 0.99;
};

// One fire or clear transition.
struct SloAlert {
  SimTime time;
  bool firing = false;  // true = fired, false = cleared.
  double fast_burn = 0.0;
  double slow_burn = 0.0;
};

class SloTracker {
 public:
  explicit SloTracker(SloSpec spec);

  // Ingests one outcome at `now`. `good` means the request met the
  // objective (completed within spec().threshold).
  void Record(SimTime now, bool good);
  // Convenience: outcome from a completion latency.
  void RecordLatency(SimTime now, Duration latency) {
    Record(now, latency <= spec_.threshold);
  }

  // Re-evaluates the burn rule at `now`, appending a fire/clear transition
  // when the state flips. Called after each Record and from bench/test
  // drains; evaluating repeatedly at the same time is a no-op.
  void Advance(SimTime now);

  double BurnRate(SimTime now, Duration window) const;
  bool firing() const { return firing_; }
  const SloSpec& spec() const { return spec_; }
  const std::vector<SloAlert>& alerts() const { return alerts_; }
  int64_t good_total() const { return good_total_; }
  int64_t bad_total() const { return bad_total_; }

 private:
  struct Bucket {
    int64_t epoch = -1;  // Absolute bucket index; -1 = empty.
    int64_t good = 0;
    int64_t bad = 0;
  };
  struct Counts {
    int64_t good = 0;
    int64_t bad = 0;
  };
  // Sums (good, bad) over the trailing `window` ending at `now`.
  void WindowCounts(SimTime now, Duration window, int64_t* good,
                    int64_t* bad) const;
  double Burn(int64_t good, int64_t bad) const;
  Bucket* BucketFor(SimTime now);

  SloSpec spec_;
  std::vector<Bucket> ring_;
  // The fast- and slow-window (good, bad) sums at bucket epoch
  // `cached_epoch_`, so Advance() rescans the ring only when the epoch
  // moves; Record() bumps them in place. -1: nothing cached yet.
  int64_t cached_epoch_ = -1;
  Counts fast_;
  Counts slow_;
  int64_t good_total_ = 0;
  int64_t bad_total_ = 0;
  bool firing_ = false;
  std::vector<SloAlert> alerts_;
};

// Alert totals over every tracker of an SloEngine (SloEngine::TallyAlerts).
struct SloAlertTally {
  int64_t fired = 0;          // Fire transitions.
  int64_t cleared = 0;        // Clear transitions.
  int64_t firing_at_end = 0;  // Trackers still firing.
};

// Registry of trackers, hung off Observability so every subsystem reaches
// it through sim.obs().slos. Registration order is deterministic for a
// deterministic program, and the JSON export follows it.
class SloEngine {
 public:
  SloEngine() = default;
  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  // Creates (or returns the existing) tracker for spec.name. A re-register
  // with the same name returns the first tracker unchanged.
  SloTracker* Register(const SloSpec& spec);
  SloTracker* Find(std::string_view name);
  const SloTracker* Find(std::string_view name) const;

  // Re-evaluates every tracker at `now` (typically after a drain, so
  // clears are recorded even when no further requests arrive).
  void Advance(SimTime now);
  // Advance(now), then totals every tracker's fire/clear transitions and
  // counts the trackers still firing. At the end of a drained run the
  // final Advance records the clear of any alert whose windows emptied.
  SloAlertTally TallyAlerts(SimTime now);

  const std::vector<std::unique_ptr<SloTracker>>& trackers() const {
    return trackers_;
  }
  size_t size() const { return trackers_.size(); }

  // Machine-readable export: specs, totals, current burn rates, and the
  // full fire/clear timeline.
  void WriteJson(std::ostream& out, SimTime now) const;
  Status WriteJsonFile(const std::string& path, SimTime now) const;

 private:
  std::vector<std::unique_ptr<SloTracker>> trackers_;
};

}  // namespace soccluster

#endif  // SRC_OBS_SLO_H_
