// Live-streaming transcoding service on the SoC Cluster (§4). Each stream
// occupies CPU capacity (software path) or a hardware-codec session, plus
// inbound/outbound network bandwidth through the PCB/ESB fabric. The
// service handles placement, admission control, and teardown, and is what
// the Figure 7 energy-proportionality sweep and Table 3 network-bound
// analysis drive.
//
// Each stream holds its SoC-side charge as one Reservation; stop, rung
// moves and failover all release it, so a false-positive failure report
// hands the CPU back and an unnoticed reboot never takes a newer stream's.

#ifndef SRC_WORKLOAD_VIDEO_LIVE_H_
#define SRC_WORKLOAD_VIDEO_LIVE_H_

#include <cstdint>
#include <map>

#include "src/base/client.h"
#include "src/base/priority.h"
#include "src/base/result.h"
#include "src/base/slab.h"
#include "src/cluster/cluster.h"
#include "src/obs/request.h"
#include "src/obs/slo.h"
#include "src/qos/admission.h"
#include "src/qos/breaker.h"
#include "src/qos/request_ledger.h"
#include "src/sched/placer.h"
#include "src/workload/video/transcode.h"
#include "src/workload/video/video.h"

namespace soccluster {

// Graceful-degradation ladder for CPU-transcoded streams. When a SoC fails,
// its displaced streams are re-admitted on the survivors at the same rung
// if possible, else pushed down the ladder (lower output bitrate, lighter
// preset, so proportionally less CPU); only when not even the bottom rung
// fits is a stream dropped. Rung 0 is full quality.
inline constexpr int kNumBitrateRungs = 3;
// Fraction of the full-quality CPU demand / output bitrate at each rung.
double BitrateRungCpuScale(int rung);
double BitrateRungBitrateScale(int rung);

class LiveTranscodingService {
 public:
  LiveTranscodingService(Simulator* sim, SocCluster* cluster,
                         PlacementPolicy policy);
  LiveTranscodingService(const LiveTranscodingService&) = delete;
  LiveTranscodingService& operator=(const LiveTranscodingService&) = delete;

  // Admits one live stream; fails with RESOURCE_EXHAUSTED when no SoC has
  // capacity (or the stream's class sits below the brownout admission
  // floor). During a brownout, new CPU streams start at the brownout rung
  // instead of full quality. The stream runs until StopStream().
  Result<int64_t> StartStream(VbenchVideo video, TranscodeBackend backend,
                              Priority priority = Priority::kStandard);
  Status StopStream(int64_t stream_id);

  // Queued admission through the shared qos AdmissionQueue: a request that
  // cannot start right now waits (highest class first, FIFO within class)
  // and starts when capacity frees — StopStream, a brownout demotion, or a
  // rung release drains the queue. Requests below the admission floor, or
  // arriving while the breaker is open (non-critical only), are shed.
  void RequestStream(VbenchVideo video, TranscodeBackend backend,
                     Priority priority = Priority::kStandard) {
    RequestStream(video, backend, priority, ClientAttribution{});
  }
  // Client-attributed variant (src/base/client.h): the request's outcome
  // — stream started, shed, or deferral expiry — reports exactly once to
  // the client observer under the caller's ticket.
  void RequestStream(VbenchVideo video, TranscodeBackend backend,
                     Priority priority, const ClientAttribution& client);
  // Single per-service outcome tap; unattributed requests never invoke it.
  void SetClientObserver(ClientObserver observer) {
    ledger_.SetClientObserver(std::move(observer));
  }

  // Pending stream-start queue (policy knobs live on the queue itself).
  AdmissionQueue& admission() { return admission_; }
  const AdmissionQueue& admission() const { return admission_; }

  // Brownout hooks. SetAdmitFloor refuses classes below `floor` at the
  // door; SetBrownoutRung(r) pushes every CPU stream down to at least rung
  // `r` in place (and back up when `r` drops, where capacity allows).
  void SetAdmitFloor(Priority floor) { admission_.SetAdmitFloor(floor); }
  void SetBrownoutRung(int rung);
  int brownout_rung() const { return brownout_rung_; }
  // Fast-fails non-critical RequestStream calls while `breaker` is open.
  // Null (default) disables.
  void SetBreaker(CircuitBreaker* breaker) { ledger_.SetBreaker(breaker); }

  // Re-homes the failed SoC's streams onto the survivors, walking each
  // stream down the bitrate ladder as needed (CPU backend) and dropping
  // only what cannot fit anywhere. Wire to a HealthMonitor's on_soc_down.
  void OnSocFailure(int soc_index);

  int active_streams() const { return static_cast<int>(streams_.size()); }
  int StreamsOnSoc(int soc_index) const;
  int StreamsAtRung(int rung) const;
  int64_t streams_degraded() const { return streams_degraded_; }
  int64_t streams_dropped() const { return streams_dropped_; }
  int64_t brownout_demoted() const { return brownout_demoted_; }
  int64_t brownout_promoted() const { return brownout_promoted_; }
  // Requests shed by admission policy (floor, breaker, queue pressure);
  // StartStream's capacity rejections are not shed.
  int64_t requests_shed() const { return ledger_.policy_drops(); }
  int pending_requests() const { return admission_.size(); }
  // Per-class stream-start SLO ("video.live/<class>"): a request is good
  // when its stream starts within the spec threshold of submission.
  SloTracker* slo_of(Priority priority) { return ledger_.slo_of(priority); }
  // Stream-start requests: a request completes when its stream starts.
  const RequestLedger& ledger() const { return ledger_; }
  // Total streams the whole cluster can admit for this video/backend.
  int ClusterCapacity(VbenchVideo video, TranscodeBackend backend) const;

  // Mixes the stream table (in id order), the capacity ledger, the
  // admission queue, and degradation accounting.
  void DigestState(StateDigest& digest) const;

 private:
  struct Stream {
    VbenchVideo video;
    TranscodeBackend backend;
    // The SoC-side charge: CPU for the cpu backend, one codec session for
    // the hw backend.
    Reservation reservation;
    int rung;  // Position on the bitrate ladder (0 = full).
    int64_t inbound_load;
    int64_t outbound_load;
    SpanId span;  // Async "stream" span (category "video.live").
    // Rung the stream runs at absent brownout pressure: 0 at admission,
    // raised only by capacity-forced failover degradation. The effective
    // rung is max(base_rung, brownout_rung_) for CPU streams.
    int base_rung = 0;
    // Causal chain for the whole stream life (submit -> admit -> place ->
    // failovers -> complete/drop). Observers-only; never digested.
    RequestContext ctx;
  };

  // A stream-start request waiting in the admission queue.
  struct PendingStream {
    VbenchVideo video;
    TranscodeBackend backend;
    RequestContext ctx;  // Owned here until the stream starts.
    ClientAttribution client;
  };
  using PendingRef = Slab<PendingStream>::Ref;

  // Per-candidate demand of one stream at `cpu_scale` on the ladder, and
  // the extra hw-session feasibility the capacity view cannot express.
  PlacementDemand StreamDemand(int soc_index, VbenchVideo video,
                               TranscodeBackend backend,
                               double cpu_scale) const;
  // Delegates the choice to the shared placer (no scanning here). `ctx`
  // (optional) joins the placer's flow point into the request's chain.
  Result<int> PickFor(VbenchVideo video, TranscodeBackend backend,
                      double cpu_scale, RequestContext* ctx = nullptr);
  int HwStreamsOnSoc(int soc_index) const;
  // Charges SoC + network resources for `stream` at `rung` on `soc_index`,
  // updating the record in place.
  void Admit(Stream* stream, int soc_index, int rung);
  // Moves a placed CPU stream to `rung` on its current SoC (release, then
  // re-admit). A promotion that no longer fits re-admits at the old rung
  // and returns false.
  bool MoveRung(Stream* stream, int rung);
  // Places `stream` on `soc_index` at `rung`, completes its start request
  // and registers it. Returns the stream id.
  int64_t Launch(Stream stream, int soc_index, int rung,
                 const RequestLedger::Request& request);
  // Starts queued stream requests while capacity allows.
  void DrainPending();
  void OnAdmissionDrop(const AdmissionQueue::Item& item,
                       AdmissionQueue::DropReason reason);

  Simulator* sim_;
  SocCluster* cluster_;
  SocCapacityView capacity_;
  Placer placer_;
  AdmissionQueue admission_;
  RequestLedger ledger_;
  Slab<PendingStream> pending_;
  int brownout_rung_ = 0;
  std::map<int64_t, Stream> streams_;
  int64_t next_id_ = 1;
  // Request-chain ids, distinct from stream ids so the flow id namespace
  // ("video.live.request") never aliases the stream span ids. Incremented
  // unconditionally, so digests match with tracing on or off.
  uint64_t next_request_id_ = 1;
  int64_t streams_degraded_ = 0;
  int64_t streams_dropped_ = 0;
  int64_t brownout_demoted_ = 0;
  int64_t brownout_promoted_ = 0;
  // Stream life-cycle counters in the registry ("video.live.*"); request
  // outcomes are the ledger's.
  Counter* stopped_metric_;
  Counter* degraded_metric_;
  Counter* dropped_metric_;
  Counter* failed_over_metric_;
  Counter* brownout_demoted_metric_;
  Counter* brownout_promoted_metric_;
  Gauge* max_active_metric_;
};

}  // namespace soccluster

#endif  // SRC_WORKLOAD_VIDEO_LIVE_H_
