#include "src/workload/video/live.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "src/base/check.h"

namespace soccluster {

namespace {
// Rung 1 halves the output bitrate with a lighter preset; rung 2 quarters
// it. CPU cost shrinks less than bitrate (rate control still runs).
constexpr double kRungCpuScale[kNumBitrateRungs] = {1.0, 0.6, 0.35};
constexpr double kRungBitrateScale[kNumBitrateRungs] = {1.0, 0.5, 0.25};
}  // namespace

double BitrateRungCpuScale(int rung) {
  SOC_CHECK_GE(rung, 0);
  SOC_CHECK_LT(rung, kNumBitrateRungs);
  return kRungCpuScale[rung];
}

double BitrateRungBitrateScale(int rung) {
  SOC_CHECK_GE(rung, 0);
  SOC_CHECK_LT(rung, kNumBitrateRungs);
  return kRungBitrateScale[rung];
}

namespace {
// The historical live-transcoding load proxy: CPU plus a small nudge per
// open hardware-codec session.
Placer::Options PlacerOptions(PlacementPolicy policy) {
  Placer::Options options;
  options.policy = policy;
  options.load.cpu_weight = 1.0;
  options.load.codec_session_weight = 0.05;
  return options;
}
}  // namespace

LiveTranscodingService::LiveTranscodingService(Simulator* sim,
                                               SocCluster* cluster,
                                               PlacementPolicy policy)
    : sim_(sim), cluster_(cluster), capacity_(cluster),
      placer_(sim, &capacity_, PlacerOptions(policy)),
      admission_(sim, "video.live"),
      // Stream-start latency: a queued request should begin transcoding
      // within a few seconds or the viewer has left.
      ledger_(sim, {.service = "video.live",
                    .slo_threshold = Duration::Seconds(5),
                    .submitted = nullptr,
                    .completed = "video.live.streams_started",
                    .shed = "video.live.admission_rejected",
                    .expired = "video.live.admission_rejected",
                    .failed = "video.live.admission_rejected",
                    .rejected = "video.live.admission_rejected"}) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK(cluster_ != nullptr);
  MetricRegistry& metrics = sim_->metrics();
  stopped_metric_ = metrics.GetCounter("video.live.streams_stopped");
  degraded_metric_ = metrics.GetCounter("video.live.streams_degraded");
  dropped_metric_ = metrics.GetCounter("video.live.streams_dropped");
  failed_over_metric_ = metrics.GetCounter("video.live.streams_failed_over");
  brownout_demoted_metric_ =
      metrics.GetCounter("video.live.brownout_demoted");
  brownout_promoted_metric_ =
      metrics.GetCounter("video.live.brownout_promoted");
  max_active_metric_ = metrics.GetGauge("video.live.max_active_streams");
  admission_.set_on_drop(
      [this](const AdmissionQueue::Item& item,
             AdmissionQueue::DropReason reason) { OnAdmissionDrop(item, reason); });
}

void LiveTranscodingService::OnAdmissionDrop(const AdmissionQueue::Item& item,
                                             AdmissionQueue::DropReason reason) {
  const PendingRef ref = PendingRef::Unpack(item.handle);
  PendingStream& pending = pending_[ref.index];
  sim_->tracer().Instant("request_shed", "video.live");
  ledger_.Finish(RequestLedger::FromDrop(reason),
                 {item.priority, item.enqueue, pending.client, &pending.ctx});
  pending_.Free(ref.index);
}

int LiveTranscodingService::StreamsOnSoc(int soc_index) const {
  int count = 0;
  for (const auto& [id, stream] : streams_) {
    if (stream.reservation.soc_index == soc_index) {
      ++count;
    }
  }
  return count;
}

int LiveTranscodingService::HwStreamsOnSoc(int soc_index) const {
  int count = 0;
  for (const auto& [id, stream] : streams_) {
    if (stream.reservation.soc_index == soc_index &&
        stream.backend == TranscodeBackend::kSocHwCodec) {
      ++count;
    }
  }
  return count;
}

PlacementDemand LiveTranscodingService::StreamDemand(int soc_index,
                                                     VbenchVideo video,
                                                     TranscodeBackend backend,
                                                     double cpu_scale) const {
  PlacementDemand demand;
  if (backend == TranscodeBackend::kSocCpu) {
    // Per-generation CPU demand (Fig. 14 factors), scaled by the ladder
    // rung the stream would run at.
    demand.cpu_util = cpu_scale * TranscodeModel::SocCpuUtilPerStream(video) /
                      cluster_->soc(soc_index).spec().cpu_transcode_factor;
  } else {
    demand.codec_sessions = 1;
    demand.codec_pixel_rate = GetVideo(video).PixelRate();
  }
  return demand;
}

Result<int> LiveTranscodingService::PickFor(VbenchVideo video,
                                            TranscodeBackend backend,
                                            double cpu_scale,
                                            RequestContext* ctx) {
  Placer::Filter hw_limit_filter;
  if (backend == TranscodeBackend::kSocHwCodec) {
    // The per-video hw-session limit is a transcode-model constraint the
    // generic capacity view cannot know about.
    hw_limit_filter = [this, video](int i) {
      return HwStreamsOnSoc(i) <
             TranscodeModel::MaxLiveStreamsSocHw(cluster_->soc(i).spec(),
                                                 video);
    };
  }
  const int best = placer_.PickWith(
      [this, video, backend, cpu_scale](int i) {
        return StreamDemand(i, video, backend, cpu_scale);
      },
      hw_limit_filter, ctx);
  if (best < 0) {
    return Status::ResourceExhausted("no SoC can admit this stream");
  }
  return best;
}

void LiveTranscodingService::Admit(Stream* stream, int soc_index, int rung) {
  const VideoSpec& spec = GetVideo(stream->video);
  const PlacementDemand demand = StreamDemand(
      soc_index, stream->video, stream->backend, BitrateRungCpuScale(rung));
  stream->reservation = capacity_.Reserve(soc_index, demand);

  // Source stream in from the edge, transcoded stream back out (at the
  // rung's output bitrate).
  Network& net = cluster_->network();
  Result<int64_t> inbound = net.AddConstantLoad(
      cluster_->external_node(), cluster_->soc_node(soc_index),
      spec.source_bitrate);
  SOC_CHECK(inbound.ok()) << inbound.status().ToString();
  Result<int64_t> outbound = net.AddConstantLoad(
      cluster_->soc_node(soc_index), cluster_->external_node(),
      spec.target_bitrate * BitrateRungBitrateScale(rung));
  SOC_CHECK(outbound.ok()) << outbound.status().ToString();

  stream->rung = rung;
  stream->inbound_load = *inbound;
  stream->outbound_load = *outbound;
}

Result<int64_t> LiveTranscodingService::StartStream(VbenchVideo video,
                                                    TranscodeBackend backend,
                                                    Priority priority) {
  if (backend != TranscodeBackend::kSocCpu &&
      backend != TranscodeBackend::kSocHwCodec) {
    return Status::InvalidArgument(
        "LiveTranscodingService runs on the SoC Cluster only");
  }
  ledger_.Submit(priority);
  if (priority > admission_.admit_floor()) {
    sim_->tracer().Instant("admission_rejected", "video.live");
    ledger_.Finish(RequestLedger::Cause::kAdmitFloor,
                   {priority, sim_->Now(), {}});
    return Status::ResourceExhausted(
        "stream class below the brownout admission floor");
  }
  Stream stream{video, backend, {}, 0, 0, 0, 0, 0, {}};
  stream.ctx.id = next_request_id_++;
  TraceRequestSubmit(&sim_->tracer(), &stream.ctx, "video.live.request",
                     sim_->Now());
  // During a brownout, CPU streams enter at the degraded rung rather than
  // being refused the full-quality slot.
  const int rung =
      backend == TranscodeBackend::kSocCpu ? brownout_rung_ : 0;
  Result<int> soc_index =
      PickFor(video, backend, BitrateRungCpuScale(rung), &stream.ctx);
  if (!soc_index.ok()) {
    sim_->tracer().Instant("admission_rejected", "video.live");
    ledger_.Finish(RequestLedger::Cause::kNoCapacity,
                   {priority, sim_->Now(), {}, &stream.ctx});
    return soc_index.status();
  }
  return Launch(std::move(stream), *soc_index, rung,
                {priority, sim_->Now(), {}});
}

int64_t LiveTranscodingService::Launch(Stream stream, int soc_index, int rung,
                                       const RequestLedger::Request& request) {
  Admit(&stream, soc_index, rung);
  Tracer& tracer = sim_->tracer();
  TraceRequestStep(&tracer, &stream.ctx, "dispatch");
  // The request completes at stream start (its SLO is the wait for that);
  // its causal chain follows the stream until stop or drop.
  ledger_.Complete(request);
  const int64_t id = next_id_++;
  stream.span = tracer.BeginAsyncSpan("stream", "video.live",
                                      static_cast<uint64_t>(id));
  tracer.AddArg(stream.span, "soc", static_cast<int64_t>(soc_index));
  tracer.AddArg(stream.span, "backend",
                stream.backend == TranscodeBackend::kSocCpu ? "cpu"
                                                            : "hw_codec");
  streams_.emplace(id, stream);
  max_active_metric_->SetMax(static_cast<double>(streams_.size()));
  return id;
}

Status LiveTranscodingService::StopStream(int64_t stream_id) {
  const auto it = streams_.find(stream_id);
  if (it == streams_.end()) {
    return Status::NotFound("no such stream");
  }
  const Stream& stream = it->second;
  capacity_.Release(stream.reservation);
  Network& net = cluster_->network();
  SOC_RETURN_IF_ERROR(net.RemoveConstantLoad(stream.inbound_load));
  SOC_RETURN_IF_ERROR(net.RemoveConstantLoad(stream.outbound_load));
  ledger_.CloseFlow(&it->second.ctx, /*completed=*/true);
  sim_->tracer().EndSpan(stream.span);
  stopped_metric_->Increment();
  streams_.erase(it);
  DrainPending();  // The freed capacity may start a queued request.
  return Status::Ok();
}

void LiveTranscodingService::RequestStream(VbenchVideo video,
                                           TranscodeBackend backend,
                                           Priority priority,
                                           const ClientAttribution& client) {
  SOC_CHECK(backend == TranscodeBackend::kSocCpu ||
            backend == TranscodeBackend::kSocHwCodec)
      << "LiveTranscodingService runs on the SoC Cluster only";
  ledger_.Submit(priority);
  if (!ledger_.BreakerAdmits(priority)) {
    sim_->tracer().Instant("request_shed", "video.live");
    ledger_.Finish(RequestLedger::Cause::kBreaker,
                   {priority, sim_->Now(), client});
    return;
  }
  const PendingRef ref = pending_.Allocate();
  PendingStream& pending = pending_[ref.index];
  pending.video = video;
  pending.backend = backend;
  pending.client = client;
  pending.ctx.id = next_request_id_++;
  TraceRequestSubmit(&sim_->tracer(), &pending.ctx, "video.live.request",
                     sim_->Now());
  if (!admission_.Offer(priority, Duration::Zero(), ref.Pack(),
                        &pending.ctx)) {
    return;  // Shed; accounted (and freed) in OnAdmissionDrop.
  }
  DrainPending();
}

void LiveTranscodingService::DrainPending() {
  while (admission_.size() > 0) {
    std::optional<AdmissionQueue::Item> item = admission_.Pop();
    if (!item.has_value()) {
      return;
    }
    const PendingRef ref = PendingRef::Unpack(item->handle);
    PendingStream& pending = pending_[ref.index];
    const int rung =
        pending.backend == TranscodeBackend::kSocCpu ? brownout_rung_ : 0;
    Result<int> soc_index = PickFor(pending.video, pending.backend,
                                    BitrateRungCpuScale(rung), &pending.ctx);
    if (!soc_index.ok()) {
      // Head-of-class blocks until capacity frees; keep FIFO order.
      admission_.RestoreFront(std::move(*item));
      return;
    }
    Launch(Stream{pending.video, pending.backend, {}, 0, 0, 0, 0, 0,
                  pending.ctx},
           *soc_index, rung, {item->priority, item->enqueue, pending.client});
    pending_.Free(ref.index);
  }
}

bool LiveTranscodingService::MoveRung(Stream* stream, int rung) {
  SOC_CHECK(stream->backend == TranscodeBackend::kSocCpu);
  const int old_rung = stream->rung;
  const int soc_index = stream->reservation.soc_index;
  capacity_.Release(stream->reservation);
  Network& net = cluster_->network();
  Status status = net.RemoveConstantLoad(stream->inbound_load);
  SOC_CHECK(status.ok()) << status.ToString();
  status = net.RemoveConstantLoad(stream->outbound_load);
  SOC_CHECK(status.ok()) << status.ToString();
  if (rung < old_rung) {
    // Promotion needs the extra CPU to still be there.
    const PlacementDemand want = StreamDemand(
        soc_index, stream->video, stream->backend, BitrateRungCpuScale(rung));
    if (!capacity_.Fits(soc_index, want)) {
      Admit(stream, soc_index, old_rung);
      return false;
    }
  }
  Admit(stream, soc_index, rung);
  sim_->tracer().AddArg(stream->span, "rung", static_cast<int64_t>(rung));
  return true;
}

void LiveTranscodingService::SetBrownoutRung(int rung) {
  SOC_CHECK_GE(rung, 0);
  SOC_CHECK_LT(rung, kNumBitrateRungs);
  if (rung == brownout_rung_) {
    return;
  }
  brownout_rung_ = rung;
  for (auto& [id, stream] : streams_) {
    if (stream.backend != TranscodeBackend::kSocCpu) {
      continue;
    }
    if (!capacity_.IsPlaceable(stream.reservation.soc_index)) {
      // The SoC failed but detection hasn't fired yet; OnSocFailure will
      // re-home the stream. Reserving against the dead SoC's ledger here
      // would oversubscribe it the moment it comes back.
      continue;
    }
    const int target = std::max(stream.base_rung, rung);
    if (target == stream.rung) {
      continue;
    }
    const bool demotion = target > stream.rung;
    if (MoveRung(&stream, target)) {
      if (demotion) {
        ++brownout_demoted_;
        brownout_demoted_metric_->Increment();
      } else {
        ++brownout_promoted_;
        brownout_promoted_metric_->Increment();
      }
    }
  }
  // Demotions freed CPU; queued requests may now fit.
  DrainPending();
}

void LiveTranscodingService::OnSocFailure(int soc_index) {
  SOC_CHECK_GE(soc_index, 0);
  SOC_CHECK_LT(soc_index, cluster_->num_socs());
  std::vector<int64_t> displaced;
  for (const auto& [id, stream] : streams_) {
    if (stream.reservation.soc_index == soc_index) {
      displaced.push_back(id);
    }
  }
  Tracer& tracer = sim_->tracer();
  for (int64_t id : displaced) {
    Stream& stream = streams_.at(id);
    // Give back the SoC-side charge (a no-op if Fail() already wiped it;
    // a report about a SoC that is still up leaves it standing) and the
    // network loads before re-homing.
    capacity_.Release(stream.reservation);
    Network& net = cluster_->network();
    Status status = net.RemoveConstantLoad(stream.inbound_load);
    SOC_CHECK(status.ok()) << status.ToString();
    status = net.RemoveConstantLoad(stream.outbound_load);
    SOC_CHECK(status.ok()) << status.ToString();

    bool placed = false;
    const int old_rung = stream.rung;
    for (int rung = old_rung; rung < kNumBitrateRungs; ++rung) {
      Result<int> target =
          PickFor(stream.video, stream.backend, BitrateRungCpuScale(rung));
      if (target.ok()) {
        Admit(&stream, *target, rung);
        failed_over_metric_->Increment();
        TraceRequestStep(&tracer, &stream.ctx, "failover");
        tracer.AddArg(stream.span, "failed_over_to",
                      static_cast<int64_t>(*target));
        if (rung > old_rung) {
          ++streams_degraded_;
          degraded_metric_->Increment();
          tracer.AddArg(stream.span, "rung", static_cast<int64_t>(rung));
        }
        // Degradation beyond the brownout floor is capacity-forced and
        // sticky; the brownout share of the rung is released later.
        const int floor = stream.backend == TranscodeBackend::kSocCpu
                              ? brownout_rung_
                              : 0;
        if (rung > floor) {
          stream.base_rung = rung;
        }
        placed = true;
        break;
      }
      if (stream.backend == TranscodeBackend::kSocHwCodec) {
        break;  // Hardware sessions are rung-independent; no point walking.
      }
    }
    if (!placed) {
      ++streams_dropped_;
      dropped_metric_->Increment();
      ledger_.CloseFlow(&stream.ctx, /*completed=*/false);
      tracer.EndSpan(stream.span);
      streams_.erase(id);
    }
  }
}

int LiveTranscodingService::StreamsAtRung(int rung) const {
  SOC_CHECK_GE(rung, 0);
  SOC_CHECK_LT(rung, kNumBitrateRungs);
  int count = 0;
  for (const auto& [id, stream] : streams_) {
    if (stream.rung == rung) {
      ++count;
    }
  }
  return count;
}

int LiveTranscodingService::ClusterCapacity(VbenchVideo video,
                                            TranscodeBackend backend) const {
  if (backend != TranscodeBackend::kSocCpu &&
      backend != TranscodeBackend::kSocHwCodec) {
    return 0;
  }
  int capacity = 0;
  for (int i = 0; i < cluster_->num_socs(); ++i) {
    const SocModel& soc = cluster_->soc(i);
    if (!soc.IsUsable()) {
      continue;
    }
    capacity += backend == TranscodeBackend::kSocCpu
                    ? TranscodeModel::MaxLiveStreamsSocCpu(soc.spec(), video)
                    : TranscodeModel::MaxLiveStreamsSocHw(soc.spec(), video);
  }
  return capacity;
}

void LiveTranscodingService::DigestState(StateDigest& digest) const {
  capacity_.DigestState(digest);
  admission_.DigestState(digest);
  digest.Mix(static_cast<int>(admission_.admit_floor()));
  digest.Mix(brownout_rung_);
  digest.Mix(static_cast<uint64_t>(streams_.size()));
  for (const auto& [id, stream] : streams_) {
    digest.Mix(id);
    digest.Mix(static_cast<int>(stream.backend));
    digest.Mix(stream.reservation.soc_index);
    digest.Mix(stream.reservation.demand.cpu_util);
    digest.Mix(stream.rung);
    digest.Mix(stream.base_rung);
    digest.Mix(stream.inbound_load);
    digest.Mix(stream.outbound_load);
  }
  digest.Mix(next_id_);
  digest.Mix(streams_degraded_);
  digest.Mix(streams_dropped_);
  digest.Mix(brownout_demoted_);
  digest.Mix(brownout_promoted_);
  digest.Mix(requests_shed());
}

}  // namespace soccluster
