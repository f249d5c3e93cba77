// Cloud-gaming workload generator for the in-the-wild trace analysis
// (§2.3, Figure 5): the deployed SoC Clusters mainly serve native mobile
// game sessions whose arrival rate follows a strong diurnal pattern, giving
// outbound-traffic peak/trough ratios of up to ~25x and overall resource
// usage below 20%.
//
// Sessions arrive as a non-homogeneous Poisson process over a diurnal
// RateProcess (src/trace/loadgen.h, thinned by NextArrival), occupy a SoC
// slot (up to two sessions per SoC), stream game video out of the
// cluster, and leave after a log-normal session length.

#ifndef SRC_TRACE_GAMING_TRACE_H_
#define SRC_TRACE_GAMING_TRACE_H_

#include <map>
#include <memory>

#include "src/base/result.h"
#include "src/cluster/cluster.h"
#include "src/obs/request.h"
#include "src/sched/placer.h"
#include "src/trace/loadgen.h"

namespace soccluster {

// The workload has no settings: the Fig. 5 operating point (arrival curve,
// session length, streaming rates, per-session CPU) is fixed by constants
// in gaming_trace.cc. The empty type keeps the constructor's signature.
struct GamingWorkloadConfig {};

class GamingWorkload {
 public:
  // Concurrent sessions one SoC hosts (its slot capacity).
  static constexpr int kMaxSessionsPerSoc = 2;

  GamingWorkload(Simulator* sim, SocCluster* cluster, GamingWorkloadConfig);
  GamingWorkload(const GamingWorkload&) = delete;
  GamingWorkload& operator=(const GamingWorkload&) = delete;

  // Generates arrivals over [now, now + horizon).
  void Start(Duration horizon);

  // Instantaneous arrival rate (sessions/hour) at simulated time `t`.
  double ArrivalRate(SimTime t) const;

  // Brownout hook: refuse new sessions beyond `cap` concurrent ones
  // (existing sessions run to completion). Negative (the default) means
  // uncapped; 0 freezes all new admissions. Counted separately from
  // capacity rejections in sessions_capped().
  void SetSessionCap(int cap) { session_cap_ = cap; }
  int session_cap() const { return session_cap_; }

  int active_sessions() const { return static_cast<int>(sessions_.size()); }
  int64_t sessions_started() const { return started_; }
  int64_t sessions_rejected() const { return rejected_; }
  int64_t sessions_capped() const { return capped_; }
  // Sessions currently hosted on one SoC (the slot ledger).
  int SessionsOnSoc(int soc_index) const { return view_.SlotsUsed(soc_index); }

  // Mixes the session table (in id order), the slot ledger, admission
  // accounting, and the workload RNG.
  void DigestState(StateDigest& digest) const;

 private:
  struct Session {
    // The session's slot and CPU share. Its fail epoch lets the release
    // skip a CPU charge that a fail/repair/reboot cycle already wiped.
    Reservation reservation;
    int64_t outbound_load;
    int64_t inbound_load;
    // Causal chain of the session (submit -> place -> dispatch -> complete).
    // Observers-only; never digested. ctx.submit doubles as the session
    // start stamp for the length histogram.
    RequestContext ctx;
  };

  void ScheduleNextArrival(SimTime horizon_end);
  void StartSession();
  void EndSession(int64_t id);

  Simulator* sim_;
  SocCluster* cluster_;
  // One stream for the thinning draws and the session lengths.
  Rng rng_;
  RateProcess arrivals_;  // Session starts per second.
  // Session slots (kMaxSessionsPerSoc each) are ledgered in the capacity
  // view; the placer spreads over them. Session CPU is reserved with the
  // slot but only gates admission — it never steered placement.
  SocCapacityView view_;
  Placer placer_;
  std::map<int64_t, Session> sessions_;
  int64_t next_id_ = 1;
  int64_t started_ = 0;
  int64_t rejected_ = 0;
  int64_t capped_ = 0;
  int session_cap_ = -1;  // Negative: uncapped.
  // Flow-chain ids ("gaming.session"), distinct from session ids so
  // rejected arrivals still get a chain. Incremented unconditionally.
  uint64_t next_request_id_ = 1;
  // Session outcomes published to the registry ("gaming.*"); the length
  // histogram is sketch-backed (multi-day diurnal traces).
  Counter* sessions_started_metric_;
  Counter* sessions_rejected_metric_;
  Counter* sessions_capped_metric_;
  HistogramMetric* session_length_metric_;
};

}  // namespace soccluster

#endif  // SRC_TRACE_GAMING_TRACE_H_
