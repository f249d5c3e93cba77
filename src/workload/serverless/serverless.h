// Serverless functions on the SoC Cluster (§8 "Killer applications": the
// SoC-level scheduling granularity lends itself to ephemeral serverless
// workloads [76]).
//
// The platform manages per-function warm instances pinned to SoCs. An
// invocation reuses a warm instance when one is idle, otherwise pays a
// cold start (instance provisioning + runtime bring-up) on a SoC with
// spare memory. Finished instances stay warm for a keep-alive window, then
// evict and release their memory. Instance memory occupancy and execution
// CPU drive the SoCs' power, so the energy cost of keep-alive policies is
// measurable — the classic cold-start/energy trade-off.

#ifndef SRC_WORKLOAD_SERVERLESS_SERVERLESS_H_
#define SRC_WORKLOAD_SERVERLESS_SERVERLESS_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/client.h"
#include "src/base/priority.h"
#include "src/base/result.h"
#include "src/base/slab.h"
#include "src/base/stats.h"
#include "src/cluster/cluster.h"
#include "src/obs/request.h"
#include "src/obs/slo.h"
#include "src/qos/admission.h"
#include "src/qos/breaker.h"
#include "src/qos/request_ledger.h"
#include "src/sched/placer.h"
#include "src/trace/loadgen.h"

namespace soccluster {

struct FunctionSpec {
  std::string name;
  double memory_mb = 256.0;
  // Execution time: log-normal with this median and sigma (serverless
  // durations are heavy-tailed [76]).
  Duration exec_median = Duration::MillisF(80.0);
  double exec_sigma = 0.6;
  // CPU demand while executing (fraction of the 8-core SoC).
  double cpu_util = 0.25;
  // Cold start: pulling the image + runtime bring-up on a mobile SoC.
  Duration cold_start = Duration::MillisF(900.0);
};

struct ServerlessConfig {
  // How long an idle instance stays warm before eviction.
  Duration keep_alive = Duration::Minutes(10);
};

struct InvocationStats {
  int64_t invocations = 0;
  int64_t cold_starts = 0;
  int64_t rejected = 0;  // No SoC had memory for a new instance.
  int64_t deferred = 0;  // Cold starts parked during a brownout.
  int64_t qos_shed = 0;  // Shed by floor/breaker/deferral-queue policy.
  int64_t failed = 0;    // Host died or went zombie under the execution.
  SampleStats latency_ms;

  double ColdStartRate() const {
    return invocations > 0
               ? static_cast<double>(cold_starts) / invocations
               : 0.0;
  }
};

class ServerlessPlatform {
 public:
  using Callback = std::function<void()>;

  // Per-instance resident memory is charged against this much of the
  // SoC's 12 GB (Android keeps the other 2 GB).
  static constexpr double kSocMemoryBudgetMb = 10240.0;

  ServerlessPlatform(Simulator* sim, SocCluster* cluster,
                     ServerlessConfig config);
  ServerlessPlatform(const ServerlessPlatform&) = delete;
  ServerlessPlatform& operator=(const ServerlessPlatform&) = delete;

  // Registers a function type. Fails on duplicates or invalid specs.
  Status RegisterFunction(const FunctionSpec& spec);

  // Invokes a function; `on_done` (may be null) fires at completion.
  // Returns kNotFound for unregistered functions; a rejection for lack of
  // memory is *not* an error (it is counted in stats, as a real platform
  // would shed the invocation). Classes below the brownout admission floor
  // are shed at the door; while cold-start deferral is engaged, cold paths
  // park in the qos admission queue until released (or their deferral
  // deadline lapses).
  Status Invoke(const std::string& function, Callback on_done,
                Priority priority = Priority::kStandard,
                const ClientAttribution& client = ClientAttribution{});
  // Single per-service outcome tap (src/base/client.h): every attributed
  // invocation reports success, shed, expiry, or failure exactly once.
  void SetClientObserver(ClientObserver observer) {
    ledger_.SetClientObserver(std::move(observer));
  }

  // Brownout hooks: refuse classes below `floor`; park would-be cold
  // starts while `defer` is on (releasing drains the parked queue).
  void SetAdmitFloor(Priority floor) { admission_.SetAdmitFloor(floor); }
  void SetDeferColdStarts(bool defer);
  bool defer_cold_starts() const { return defer_cold_starts_; }
  // Fast-fails non-critical invocations while `breaker` is open. Null
  // (default) disables; the ledger's breaker rule feeds it.
  void SetBreaker(CircuitBreaker* breaker) { ledger_.SetBreaker(breaker); }
  // Per-execution evidence tap for gray-failure detection (host SoC, the
  // execution's latency, success). Workload code reports evidence outward;
  // DegradationScorer (src/core/graydetect.h) owns per-SoC aggregation.
  void SetAttemptObserver(RequestLedger::AttemptObserver observer) {
    ledger_.SetAttemptObserver(std::move(observer));
  }
  AdmissionQueue& admission() { return admission_; }
  const AdmissionQueue& admission() const { return admission_; }
  int deferred_pending() const { return admission_.size(); }

  // Per-class invocation-latency SLO ("serverless/<class>").
  SloTracker* slo_of(Priority priority) { return ledger_.slo_of(priority); }
  const RequestLedger& ledger() const { return ledger_; }

  InvocationStats stats() const {
    return {ledger_.submitted(), cold_starts_,
            ledger_.CountOf(RequestLedger::Cause::kNoCapacity), deferred_,
            ledger_.policy_drops(), ledger_.failed(), latency_ms_};
  }
  // Warm (idle) + active instances of a function across the cluster.
  int InstanceCount(const std::string& function) const;
  int WarmInstanceCount(const std::string& function) const;
  // Total resident function memory on one SoC.
  double SocMemoryMb(int soc_index) const;

  // Mixes the instance table (in id order), the memory ledger, the
  // admission queue, invocation stats, and the platform RNG.
  void DigestState(StateDigest& digest) const;

 private:
  struct Instance {
    int64_t id;
    std::string function;
    Reservation memory;  // The instance's resident memory on its SoC.
    bool busy = false;
    EventHandle eviction;
  };

  // One invocation from Invoke to its outcome: parked in the admission
  // queue while cold-start deferral is engaged, then cold-starting or
  // executing on `instance_id`. In the trace it is a group of async spans
  // (category "serverless") under ctx.id, rooted at `span`, plus the causal
  // request chain (flow category "serverless.request").
  struct Invocation {
    const FunctionSpec* spec = nullptr;  // Into functions_ (stable).
    Callback on_done;
    Priority priority = Priority::kStandard;
    SimTime enqueue;
    ClientAttribution client;
    SpanId span = 0;
    SpanId phase_span = 0;  // The running "cold_start" or "exec" span.
    RequestContext ctx;
    // The instance and execution in progress.
    int64_t instance_id = 0;
    Reservation grant;  // The execution's CPU share of its SoC.
    Duration exec;
  };
  using InvocationRef = Slab<Invocation>::Ref;

  RequestLedger::Request View(Invocation& invocation) {
    return {invocation.priority, invocation.enqueue, invocation.client,
            &invocation.ctx};
  }
  Instance* FindWarmInstance(const std::string& function);
  void RunOn(Instance* instance, InvocationRef ref);
  void FinishInvocation(InvocationRef ref);
  // Ends an invocation that never ran, tagging its span with `key`.
  void Drop(InvocationRef ref, RequestLedger::Cause cause, const char* key,
            const char* value);
  void Evict(int64_t instance_id);
  void ArmEviction(Instance* instance);
  // Provisions a cold instance for the invocation (the pre-deferral cold
  // path, shared by Invoke and the deferred-drain path).
  void ColdStart(InvocationRef ref);
  // Runs parked invocations that can proceed now (warm reuse always;
  // cold start once deferral is off).
  void DrainDeferred();
  void OnAdmissionDrop(const AdmissionQueue::Item& item,
                       AdmissionQueue::DropReason reason);

  Simulator* sim_;
  SocCluster* cluster_;
  ServerlessConfig config_;
  Rng rng_;
  // Instance memory is ledgered against the per-SoC budget here; placement
  // spreads by resident memory (the historical most-free-memory rule).
  SocCapacityView view_;
  Placer placer_;
  AdmissionQueue admission_;
  RequestLedger ledger_;
  Slab<Invocation> invocations_;
  bool defer_cold_starts_ = false;
  std::map<std::string, FunctionSpec> functions_;
  std::map<int64_t, Instance> instances_;
  int64_t next_instance_id_ = 1;
  uint64_t next_invocation_id_ = 1;
  int64_t cold_starts_ = 0;
  int64_t deferred_ = 0;
  SampleStats latency_ms_;
  // Provisioning counters in the registry ("serverless.*"); invocation
  // outcomes are the ledger's.
  Counter* cold_starts_metric_;
  Counter* deferred_metric_;
  HistogramMetric* latency_metric_;
};

// A heavy-tailed multi-function workload driver: function popularity is
// Zipf-like, arrivals are Poisson per function.
class ServerlessWorkload {
 public:
  ServerlessWorkload(Simulator* sim, ServerlessPlatform* platform,
                     int num_functions, double total_rate_per_s,
                     uint64_t seed);

  // Registers `num_functions` synthetic functions and starts arrivals for
  // `duration`.
  Status Start(Duration duration);
  int64_t generated() const {
    return source_ != nullptr ? source_->generated() : 0;
  }

 private:
  void InvokeOne();

  Simulator* sim_;
  ServerlessPlatform* platform_;
  int num_functions_;
  double total_rate_;
  Rng rng_;
  std::vector<std::string> names_;
  std::vector<double> cumulative_popularity_;
  // Poisson arrivals delegate to the shared open-loop source (the
  // tier-owned arrival-process policy; see src/trace/loadgen.h), drawing
  // from this workload's private RNG stream — the draw and schedule order
  // match the historical inline loop bit for bit.
  std::unique_ptr<OpenLoopSource> source_;
};

}  // namespace soccluster

#endif  // SRC_WORKLOAD_SERVERLESS_SERVERLESS_H_
