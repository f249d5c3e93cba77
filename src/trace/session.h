// Open-loop client/session tier: millions of concurrent users as counters
// and slab records, not objects with event chains (ROADMAP item 5).
//
// Production traffic is open-loop — users do not slow down because the
// cluster is overloaded; their timeouts and retries *add* load exactly
// when capacity is scarcest. This tier makes that a simulated phenomenon:
//
//   * Regional cohorts, each with a diurnal curve (peak/trough up to
//     ~25x), a regional phase offset, and flash-crowd spike overlays (a
//     RateProcess, src/trace/loadgen.h). Arrivals are session starts,
//     generated by RateProcess::NextArrival's NHPP thinning — one pending
//     event per cohort, regardless of user count.
//   * A session is one slab record (src/base/slab.h): it issues a
//     request, waits for the outcome or a client-side timeout, thinks,
//     and repeats for a geometric number of requests. All waiting is
//     cohort-bucketed on one coarse timing wheel serviced by a single
//     periodic tick every 100 ms — no per-user heap event chains, so 2M
//     users cost the same event budget as 2k. Client timeouts, think
//     times and retry delays resolve at that granularity.
//   * Each request carries a client-side timeout, an end-to-end deadline,
//     and a retry policy: kNaive (fixed-delay, effectively unbounded —
//     the storm-maker) or kBudgeted (RetryBackoff jittered exponential
//     gated by a RetryBudget token bucket). Retry amplification is
//     therefore an output of the simulation, not a knob.
//   * Outcomes return through the ClientObserver contract
//     (src/base/client.h). Tickets are generation-counted slab refs,
//     renewed on every attempt: a late server completion for an attempt
//     the client already abandoned fails IsLive() and is counted as
//     wasted work — the signature of the metastable state.
//   * Accounting is rolling (rtorrent `Rate` idiom): per-window counter
//     buckets give the goodput-vs-time series the ride-out bench plots,
//     with O(windows) memory. Per-cohort SLO trackers (SloSpec::cohort)
//     watch "good = success within the client deadline".
//
// Determinism: the tier consumes randomness only from its own seeded
// streams, schedules only the per-cohort arrival chains and the wheel
// tick, and pins those chains into one anchor group — submissions into a
// shared (order-sensitive) admission queue keep their relative order under
// tie-break perturbation by construction. DigestState covers every
// result-bearing field; det_sessions_day certifies the whole loop.

#ifndef SRC_TRACE_SESSION_H_
#define SRC_TRACE_SESSION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/client.h"
#include "src/base/priority.h"
#include "src/base/retry.h"
#include "src/base/rng.h"
#include "src/base/slab.h"
#include "src/base/units.h"
#include "src/obs/slo.h"
#include "src/sim/simulator.h"
#include "src/trace/loadgen.h"

namespace soccluster {

enum class RetryMode {
  kNaive,     // Fixed-delay retry until the give-up horizon. This is the
              // classic storm-maker: no backoff, no budget.
  kBudgeted,  // RetryBackoff jittered exponential with bounded attempts,
              // gated by a RetryBudget token bucket.
};

const char* RetryModeName(RetryMode mode);

// One regional user population. Weights need not sum to 1; they are
// normalized over the tier.
struct SessionCohortConfig {
  std::string name;
  double weight = 1.0;
  // Regional diurnal offset in hours (a cohort two time zones west peaks
  // two hours later).
  double phase_hours = 0.0;
};

struct SessionTierConfig {
  // Modeled population, for per-user rate reporting only — the simulation
  // cost scales with request volume, not user count.
  int64_t users = 1'000'000;
  // Aggregate request rate (req/s, all cohorts) at the diurnal peak with
  // no flash crowd active.
  double peak_rps = 500.0;
  // Day shape shared by all cohorts (per-cohort phase applied on top).
  DiurnalShape diurnal;
  // Spike overlays applied to every cohort's rate process (a livestream
  // event landing on the evening peak hits all regions at once).
  std::vector<FlashCrowd> flash_crowds;

  // Session structure: geometric number of requests per session with this
  // mean, separated by log-normal think times.
  double requests_per_session = 4.0;
  Duration think_median = Duration::Seconds(45);
  double think_sigma = 0.7;

  // Client-side request handling.
  Duration client_timeout = Duration::Seconds(1);   // Per attempt.
  Duration client_deadline = Duration::Seconds(2);  // End-to-end "good".
  // The user walks away this long after the first attempt (bounds naive
  // retries; zero gives up on the first failed attempt).
  Duration give_up_after = Duration::Minutes(2);

  RetryMode retry_mode = RetryMode::kBudgeted;
  Duration naive_retry_delay = Duration::Seconds(1);
  RetryPolicy backoff;  // kBudgeted pacing.
  double budget_tokens_per_success = 0.1;
  double budget_max_tokens = 100.0;

  // Rolling-counter window (the goodput-vs-time resolution).
  Duration counter_window = Duration::Minutes(1);

  uint64_t seed = 1;
};

// One rolling-counter window (rtorrent `Rate`-style: fixed-size buckets,
// counters only).
struct SessionWindow {
  int64_t sessions_started = 0;
  int64_t issued = 0;      // First attempts.
  int64_t submitted = 0;   // All attempts (issued + retries).
  int64_t completed = 0;   // Server completions seen by a live waiter.
  int64_t good = 0;        // Completed within the client deadline.
  int64_t timeouts = 0;    // Client-side attempt timeouts.
  int64_t retries = 0;
  int64_t retries_denied = 0;  // Budget refusals (kBudgeted only).
  int64_t give_ups = 0;    // Requests abandoned by the client.
  int64_t rejected = 0;    // Server-reported shed/expired/failed attempts.
  int64_t wasted = 0;      // Late server outcomes for abandoned attempts.
};

class SessionTier {
 public:
  // The tier submits one server attempt through this hook. The service's
  // ClientObserver must be wired to Observer() before traffic starts.
  using Submit = std::function<void(Priority, const ClientAttribution&)>;

  SessionTier(Simulator* sim, SessionTierConfig config,
              std::vector<SessionCohortConfig> cohorts);
  SessionTier(const SessionTier&) = delete;
  SessionTier& operator=(const SessionTier&) = delete;
  ~SessionTier();

  void SetSubmit(Submit submit) { submit_ = std::move(submit); }
  // The outcome tap to install as the service's ClientObserver.
  ClientObserver Observer();

  // Generates session arrivals over [now, now + horizon) and starts the
  // wheel. The wheel stops itself once the horizon has passed and every
  // session has drained.
  void Start(Duration horizon);

  const SessionTierConfig& config() const { return config_; }
  size_t cohort_count() const { return cohorts_.size(); }
  const std::string& cohort_name(size_t i) const {
    return cohorts_[i].config.name;
  }

  // Live sessions (active users mid-session right now).
  size_t live_sessions() const { return slab_.live(); }

  // Tier-wide totals.
  int64_t sessions_started() const { return totals_.sessions_started; }
  int64_t issued() const { return totals_.issued; }
  int64_t submitted() const { return totals_.submitted; }
  int64_t completed() const { return totals_.completed; }
  int64_t good() const { return totals_.good; }
  int64_t timeouts() const { return totals_.timeouts; }
  int64_t retries() const { return totals_.retries; }
  int64_t retries_denied() const { return totals_.retries_denied; }
  int64_t give_ups() const { return totals_.give_ups; }
  int64_t wasted() const { return totals_.wasted; }
  // Per-cohort totals (same struct, per cohort index).
  const SessionWindow& cohort_totals(size_t i) const {
    return cohorts_[i].totals;
  }

  // The rolling series: window w covers
  // [w * counter_window, (w + 1) * counter_window).
  const std::vector<SessionWindow>& series() const { return series_; }
  // Goodput fraction over a window range [begin, end): good / issued,
  // 0 when nothing was issued.
  double GoodputOver(size_t begin, size_t end) const;

  SloTracker* cohort_slo(size_t i) { return cohorts_[i].slo; }
  const RetryBudget* budget() const { return budget_.get(); }

  // The tier's anchor group. The wheel quantizes wakes onto a coarse grid,
  // so same-instant collisions between tier events and the service's
  // completion events are systematic, not measure-zero — the service side
  // of the pipeline should join this group (e.g.
  // SocServingFleet::SetEventAnchorGroup) to pin the shared admission
  // order under tie-break perturbation.
  uint64_t anchor_group() const { return anchor_group_; }

  // Mixes every result-bearing field: totals, per-cohort state (counters,
  // arrival and think streams), the live session set (commutatively
  // — slab slot order depends on allocation history), wheel occupancy,
  // and the retry pacing state.
  void DigestState(StateDigest& digest) const;

 private:
  enum SessionState : uint8_t {
    kInFlight = 0,   // Awaiting a server outcome or the client timeout.
    kThinking = 1,   // Between requests.
    kRetryWait = 2,  // Between attempts.
  };

  struct SessionRec {
    uint32_t cohort = 0;
    SessionState state = kThinking;
    Priority priority = Priority::kStandard;
    int32_t attempts = 0;       // Attempts of the current request.
    int32_t requests_left = 0;  // Remaining requests incl. the current.
    SimTime first_issue;        // First attempt of the current request.
    SimTime attempt_issue;      // Latest attempt.
    SimTime wake;               // Wheel wake time for the current state.
  };

  struct Cohort {
    SessionCohortConfig config;
    std::unique_ptr<RateProcess> rate;  // Session-start rate process.
    // Separate streams so the arrival sequence is bit-identical across
    // retry-mode A/B runs of the same seed: behavior draws (think times,
    // session lengths) consume session_rng at rates that depend on the
    // retry policy, and must not perturb the thinning draws.
    Rng arrival_rng;
    Rng session_rng;
    SessionWindow totals;
    SloTracker* slo = nullptr;  // Owned by the registry.
    int64_t issued_mix = 0;     // Priority-mix counter.
  };

  struct WheelEntry {
    uint64_t ref = 0;  // Packed slab ref; stale entries skip in O(1).
    int64_t wake_ns = 0;
  };

  SessionWindow& WindowAt(SimTime t);
  void Bump(uint32_t cohort, int64_t SessionWindow::* field, SimTime t);

  void ScheduleArrival(size_t cohort_index);
  void StartSession(size_t cohort_index);
  // Begins a fresh request for the session (resets the attempt counter and
  // the end-to-end clock, draws a priority) and issues its first attempt.
  void StartRequest(uint32_t index);
  // Issues the next attempt of the session's current request. Renews the
  // slab slot first, so every prior ticket and wheel entry goes stale.
  void IssueAttempt(uint32_t index);
  void OnOutcome(uint64_t ticket, ClientOutcome outcome, Duration latency);
  // Client-side timeout or server rejection (the same client policy):
  // retry or give up.
  void FailAttempt(uint32_t index);
  // Finishes the current request successfully; thinks or ends the session.
  void CompleteRequest(uint32_t index, Duration latency);
  void EndSession(uint32_t index);
  void WheelInsert(Slab<SessionRec>::Ref ref, SimTime wake);
  void ArmTick();
  void WheelTick();

  Simulator* sim_;
  SessionTierConfig config_;
  std::vector<Cohort> cohorts_;
  Submit submit_;
  Slab<SessionRec> slab_;
  std::unique_ptr<RetryBackoff> backoff_;  // kBudgeted.
  std::unique_ptr<RetryBudget> budget_;    // kBudgeted.

  // Timing wheel: ring of quantum-wide buckets; entries whose wake lies a
  // full lap ahead are re-queued when their slot comes around. The tick is
  // a self-chaining event (not a PeriodicTask) so it can carry the tier's
  // anchor group and stop itself once drained past the horizon.
  std::vector<std::vector<WheelEntry>> wheel_;
  SimTime wheel_start_;
  SimTime next_tick_;
  SimTime horizon_end_;
  size_t wheel_live_ = 0;
  uint64_t anchor_group_ = 0;
  bool started_ = false;

  SessionWindow totals_;
  std::vector<SessionWindow> series_;

  // Registry counters (observers-only; never digested).
  Counter* issued_metric_;
  Counter* submitted_metric_;
  Counter* good_metric_;
  Counter* timeout_metric_;
  Counter* retry_metric_;
  Counter* give_up_metric_;
  Counter* wasted_metric_;
  Gauge* live_sessions_metric_;
};

}  // namespace soccluster

#endif  // SRC_TRACE_SESSION_H_
