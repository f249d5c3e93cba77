// DES components of the DL-serving study (§5): a per-SoC serving fleet
// (one engine per SoC, central FIFO queue) and a batching server for
// discrete GPUs (TensorRT-style: collect up to max_batch requests or wait
// out a timeout, then run the batch). Open-loop request sources live in
// src/trace/loadgen.h.

#ifndef SRC_WORKLOAD_DL_SERVING_H_
#define SRC_WORKLOAD_DL_SERVING_H_

#include <array>
#include <deque>
#include <memory>
#include <vector>

#include "src/base/client.h"
#include "src/base/priority.h"
#include "src/base/retry.h"
#include "src/base/slab.h"
#include "src/base/stats.h"
#include "src/cluster/cluster.h"
#include "src/hw/gpu.h"
#include "src/obs/request.h"
#include "src/obs/slo.h"
#include "src/qos/admission.h"
#include "src/qos/breaker.h"
#include "src/qos/request_ledger.h"
#include "src/sched/placer.h"
#include "src/workload/dl/engine.h"
#include "src/workload/dl/model.h"

namespace soccluster {

// Serves single requests on a set of cluster SoCs. Each active SoC runs one
// request at a time at the engine's service rate (scaled down while the SoC
// is thermally throttled); requests queue centrally. Driving the per-SoC
// utilization through SocModel makes the cluster's power track load — the
// mechanism behind Figure 12.
//
// Admission runs through a shared priority-aware AdmissionQueue
// (src/qos/admission.h): three priority classes dispatched highest class
// first, queue caps that shed from the lowest class, and deadline-expiry
// purge at dispatch. The length cap is configured on admission() directly;
// an optional per-service circuit breaker (SetBreaker) fast-fails
// non-critical submissions while the service is overwhelmed.
//
// Request-level resilience, all opt-in:
//   * SetDeadline — a request whose queueing delay already exceeds the
//     deadline is dropped at dispatch time (doomed work is never started,
//     counted under "dl.serving.expired" separately from shed);
//   * SetRetryPolicy — a request whose serving SoC dies mid-inference is
//     re-queued after an exponential, jittered backoff, gated by a retry
//     budget so retries cannot amplify an outage into a storm.
// A request has at most one dispatch in flight. That dispatch holds one
// Reservation on the fleet's capacity view: the engine slot plus the
// engine's compute (the CPU headroom, or the whole GPU/DSP). A SoC fails
// stop, so its death mid-flight is read off that reservation's fail epoch
// when the inference's finish event fires — a fail/repair/reboot race
// cannot masquerade as success, the release never takes a charge the
// failure already wiped, and the retry decision is made there.
//
// Every request is traced end-to-end as a nested async span group
// (category "dl.serving"): request ⊃ queue → infer → network, plus a
// synchronous "infer" span on the serving SoC's track, so an exported trace
// shows both the request timeline and per-SoC occupancy. Counters and the
// latency histogram land in the registry under "dl.serving.*".
class SocServingFleet {
 public:
  SocServingFleet(Simulator* sim, SocCluster* cluster, DlDevice soc_device,
                  DnnModel model, Precision precision);
  SocServingFleet(const SocServingFleet&) = delete;
  SocServingFleet& operator=(const SocServingFleet&) = delete;

  // Declares the first `count` usable SoCs as the active serving set.
  // Shrinking does not abort in-flight work.
  void SetActiveCount(int count);
  int active_count() const { return view_.active_count(); }

  // When nonzero, each completed inference also ships its response of
  // `size` through the cluster fabric to the external node as a bulk flow
  // (traced as the request's "network" phase). Completion counters and
  // latency stats still close at inference end, so enabling the response
  // path changes neither throughput nor the reported latencies.
  void SetResponseSize(DataSize size) { response_size_ = size; }
  // Moves latency accounting (stats, SLOs, attempt evidence) from
  // inference end to response delivery, so a browned-out uplink shows up
  // in the recorded tail. No effect while response_size is zero. Off by
  // default — existing benches keep their inference-end semantics.
  void SetLatencyIncludesResponse(bool include) {
    latency_includes_response_ = include;
  }

  // Per-attempt evidence tap for gray-failure detection: invoked with the
  // serving SoC, the attempt's service latency, and whether the attempt
  // succeeded. Workload code reports evidence outward and never aggregates
  // per-SoC stats itself — DegradationScorer (src/core/graydetect.h) owns
  // the scoring; wire this to it (ChaosRunner and the gray bench do).
  void SetAttemptObserver(RequestLedger::AttemptObserver observer) {
    ledger_.SetAttemptObserver(std::move(observer));
  }

  // The fleet's admission queue. Queue policy — length cap, brownout
  // admission floor — is set here (the qos layer owns queue-cap
  // semantics; the fleet no longer carries its own).
  AdmissionQueue& admission() { return admission_; }
  const AdmissionQueue& admission() const { return admission_; }
  // Drop requests whose queueing delay exceeds `deadline` (checked at
  // dispatch). Zero (default) disables. Snapshotted per request at Submit.
  void SetDeadline(Duration deadline);
  // Caps concurrently dispatched requests (brownout "shrink serving" rung).
  // Zero (default) disables.
  void SetDispatchLimit(int limit);
  // Fast-fails non-critical Submit() calls while `breaker` is open (shed
  // at the door, counted per class). Critical traffic bypasses the breaker
  // — during a brownout the critical SLO outranks drain speed. Null
  // (default) disables; the ledger's breaker rule feeds it.
  void SetBreaker(CircuitBreaker* breaker) { ledger_.SetBreaker(breaker); }
  // Retry requests that die with their SoC, paced by `policy` with
  // deterministic jitter from `seed`. A retry budget (SetRetryBudget)
  // bounds amplification; without one, retries are unlimited.
  void SetRetryPolicy(RetryPolicy policy, uint64_t seed);
  void SetRetryBudget(double tokens_per_success, double max_tokens);

  void Submit() { Submit(Priority::kStandard); }
  void Submit(Priority priority) { Submit(priority, ClientAttribution{}); }
  // Client-attributed submission (src/base/client.h): the outcome —
  // success, shed, expiry, or abandonment — is reported exactly once to
  // the client observer, tagged with the caller's ticket. The session tier
  // (src/trace/session.h) drives the fleet through this overload.
  void Submit(Priority priority, const ClientAttribution& client);
  // Installs the single per-service outcome tap. Unattributed submissions
  // (ticket 0) never invoke it.
  void SetClientObserver(ClientObserver observer) {
    ledger_.SetClientObserver(std::move(observer));
  }
  // When enabled, an attributed request's admission deadline is clamped to
  // the client's own per-attempt deadline, so work the client has already
  // abandoned is purged at dispatch instead of burning a SoC slot — the
  // server-side half of retry-storm ride-out. Off by default.
  void SetHonorClientDeadline(bool honor) { honor_client_deadline_ = honor; }
  // Exact per-request latency samples (SampleStats), overall and per
  // class, power digests and small-run baselines but cost O(requests)
  // memory. Million-request session runs disable them; the registry
  // histogram, a sketch over every class, still sees each completion.
  // On by default.
  void SetExactLatencySamples(bool exact) { exact_latency_samples_ = exact; }
  // Seq-anchors the fleet's internal event chains (inference completions
  // and retry requeues) into `group`. An open-loop session tier
  // quantizes submissions onto its wheel grid, which makes equal-timestamp
  // collisions between tier events and deterministic-latency completions
  // systematic; sharing the tier's group (SessionTier::anchor_group) pins
  // the admission pipeline's order under tie-break perturbation. Zero
  // (default) leaves the events unanchored.
  void SetEventAnchorGroup(uint64_t group) { event_anchor_ = group; }

  int64_t completed() const { return ledger_.completed(); }
  int64_t shed() const { return ledger_.shed(); }
  int64_t deadline_expired() const { return ledger_.expired(); }
  int64_t failed() const { return ledger_.failed(); }
  int64_t retries() const { return retries_; }
  int queue_length() const { return admission_.size(); }
  const SampleStats& latencies() const { return latencies_; }
  // Per-class views of the same accounting.
  int64_t completed_of(Priority p) const {
    return ledger_.Count(ClientOutcome::kSuccess, p);
  }
  int64_t shed_of(Priority p) const {
    return ledger_.Count(ClientOutcome::kShed, p);
  }
  int64_t expired_of(Priority p) const {
    return ledger_.Count(ClientOutcome::kExpired, p);
  }
  const RequestLedger& ledger() const { return ledger_; }
  const SampleStats& latencies_of(Priority p) const {
    return latencies_of_[static_cast<size_t>(p)];
  }
  // Engine service rate of one SoC (samples/s), unthrottled.
  double PerSocThroughput() const;

  // Dispatch placer — exposed so callers can install a load penalty
  // (e.g. GrayFailureManager::PlacementPenalty steering work off suspects).
  Placer& placer() { return placer_; }

  // Per-class latency SLO tracker ("dl.serving/<class>", registered at
  // construction): a completion is good iff latency <= the spec threshold;
  // sheds, expiries, and abandonments are bad. Read burn state after a
  // run; the spec is fixed at construction.
  SloTracker* slo_of(Priority p) { return ledger_.slo_of(p); }

  // Mixes the ledgers, admission queue, request accounting (per class),
  // the full latency sample sequence, and the retry jitter stream.
  void DigestState(StateDigest& digest) const;

 private:
  struct RequestState {
    SimTime enqueue;
    SimTime attempt_start;  // Dispatch time of the latest attempt.
    Priority priority = Priority::kStandard;
    Duration deadline;  // Snapshot of the fleet deadline at Submit.
    SpanId request_span = 0;
    SpanId queue_span = 0;
    // The in-flight attempt's inference phase: the async child of the
    // request span and the synchronous span on the SoC's track.
    SpanId infer_span = 0;
    SpanId infer_track_span = 0;
    int attempts = 0;  // Dispatch attempts started.
    // The in-flight attempt's engine slot plus its CPU/GPU/DSP charge; its
    // fail epoch tells whether the SoC died under the attempt.
    Reservation reservation;
    // Client attribution (ticket 0 = unattributed legacy submission).
    ClientAttribution client;
    // Causal-trace context; its id also keys the request's async spans.
    RequestContext ctx;
  };
  using RequestRef = Slab<RequestState>::Ref;

  RequestLedger::Request View(RequestState& request) {
    return {request.priority, request.enqueue, request.client, &request.ctx};
  }
  void OnAdmissionDrop(const AdmissionQueue::Item& item,
                       AdmissionQueue::DropReason reason);
  void TryDispatch();
  // One dispatch on `soc`: an engine slot plus the engine's compute.
  PlacementDemand DispatchDemand(const SocModel& soc) const;
  // The finish event of `ref`'s in-flight attempt.
  void FinishOn(RequestRef ref);
  // Puts a request whose retry backoff has elapsed back in the queue.
  void Requeue(RequestRef ref);
  void Complete(int soc_index, RequestRef ref);
  // Latency accounting for a completed request (stats, SLO, evidence);
  // runs at inference end or response delivery per the latency mode.
  void RecordCompletion(int soc_index, RequestState& request);
  // Display track hosting SoC `i`'s synchronous spans.
  static int64_t SocTrack(int soc_index) { return 100 + soc_index; }

  Simulator* sim_;
  SocCluster* cluster_;
  DlDevice device_;
  DnnModel model_;
  Precision precision_;
  // One engine slot per SoC; dispatch spreads over free slots (== the
  // historical first-free scan, since free engines all carry zero load).
  // Only the active set [0, active_count()) is placeable through it.
  SocCapacityView view_;
  Placer placer_;
  AdmissionQueue admission_;
  RequestLedger ledger_;
  // Queued, in flight, waiting out a retry backoff, or awaiting response.
  Slab<RequestState> requests_;
  int64_t retries_ = 0;
  std::array<SampleStats, kNumPriorities> latencies_of_;
  SampleStats latencies_;
  DataSize response_size_;  // Zero: no response transfer.
  bool latency_includes_response_ = false;
  bool honor_client_deadline_ = false;
  uint64_t event_anchor_ = 0;  // Zero: unanchored (SetEventAnchorGroup).
  bool exact_latency_samples_ = true;
  Duration deadline_;       // Zero: none.
  int dispatch_limit_ = 0;  // Zero: unbounded.
  int in_flight_ = 0;       // Requests currently holding an engine slot.
  std::unique_ptr<RetryBackoff> backoff_;  // Null: retries off.
  std::unique_ptr<RetryBudget> budget_;    // Null: unlimited retries.
  uint64_t next_request_id_ = 1;
  Counter* retries_metric_;
  HistogramMetric* latency_metric_;
  Gauge* max_queue_metric_;
};

// Batching server for one discrete GPU. Each launched batch is traced as a
// synchronous "batch" span (category "dl.gpu_batch", batch size attached as
// an arg) on a dedicated GPU track; counters and histograms land under
// "dl.gpu_batch.*" in the registry.
class GpuBatchServer {
 public:
  GpuBatchServer(Simulator* sim, DiscreteGpuModel* gpu, DlDevice device,
                 DnnModel model, Precision precision, int max_batch,
                 Duration batch_timeout);
  GpuBatchServer(const GpuBatchServer&) = delete;
  GpuBatchServer& operator=(const GpuBatchServer&) = delete;

  void Submit();

  int64_t completed() const { return completed_; }
  int queue_length() const { return static_cast<int>(queue_.size()); }
  const SampleStats& latencies() const { return latencies_; }

 private:
  void MaybeLaunch(bool timeout_expired);
  void FinishBatch(std::vector<SimTime> batch, SpanId batch_span);
  // Display track hosting the GPU's batch spans.
  static int64_t GpuTrack() { return 90; }

  Simulator* sim_;
  DiscreteGpuModel* gpu_;
  DlDevice device_;
  DnnModel model_;
  Precision precision_;
  int max_batch_;
  Duration batch_timeout_;
  std::deque<SimTime> queue_;
  bool running_ = false;
  EventHandle timeout_event_;
  int64_t completed_ = 0;
  SampleStats latencies_;
  Counter* submitted_metric_;
  Counter* completed_metric_;
  Counter* batches_metric_;
  HistogramMetric* latency_metric_;
  HistogramMetric* batch_size_metric_;
};

}  // namespace soccluster

#endif  // SRC_WORKLOAD_DL_SERVING_H_
