#include "src/trace/gaming_trace.h"

#include <optional>

#include "src/base/check.h"

namespace soccluster {

namespace {

// The arrival curve is a DiurnalShape (its default sharpening and 24 h
// day). Peak arrival rate (sessions per hour) at the evening maximum.
constexpr double kPeakArrivalsPerHour = 220.0;
// Overnight floor as a fraction of the peak (sets the ~25x traffic swing
// together with session-count dynamics).
constexpr double kTroughFraction = 0.08;
// Hour of local time with peak demand.
constexpr double kPeakHour = 21.0;
// Median session length and log-space sigma.
constexpr Duration kMedianSession = Duration::Minutes(28);
constexpr double kSessionSigma = 0.8;
// Per-session streaming rates (720p60 game video plus control inbound).
constexpr DataRate kOutboundPerSession = DataRate::Mbps(15.0);
constexpr DataRate kInboundPerSession = DataRate::Kbps(300.0);
// Per-session SoC demand: game render/encode pipeline.
constexpr double kCpuUtilPerSession = 0.34;
constexpr uint64_t kSeed = 7;

constexpr PlacementDemand kSessionSlot{.slots = 1};

SocCapacityView::Options ViewOptions() {
  SocCapacityView::Options options;
  options.slot_capacity = GamingWorkload::kMaxSessionsPerSoc;
  return options;
}

// Least-sessions-first placement == spread over the slot ledger.
Placer::Options PlacerOptions() {
  Placer::Options options;
  options.policy = PlacementPolicy::kSpread;
  options.load.cpu_weight = 0.0;
  options.load.slot_weight = 1.0;
  return options;
}

}  // namespace

GamingWorkload::GamingWorkload(Simulator* sim, SocCluster* cluster,
                               GamingWorkloadConfig)
    : sim_(sim), cluster_(cluster), rng_(kSeed),
      arrivals_(kPeakArrivalsPerHour / 3600.0,
                DiurnalShape{.trough_fraction = kTroughFraction,
                             .peak_hour = kPeakHour}),
      view_(cluster, ViewOptions()),
      placer_(sim, &view_, PlacerOptions()) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK(cluster_ != nullptr);
  MetricRegistry& metrics = sim_->metrics();
  sessions_started_metric_ = metrics.GetCounter("gaming.sessions_started");
  sessions_rejected_metric_ = metrics.GetCounter("gaming.sessions_rejected");
  sessions_capped_metric_ = metrics.GetCounter("gaming.sessions_capped");
  session_length_metric_ = metrics.GetHistogram("gaming.session_length_ms");
}

double GamingWorkload::ArrivalRate(SimTime t) const {
  return arrivals_.RateAt(t) * 3600.0;
}

void GamingWorkload::Start(Duration horizon) {
  ScheduleNextArrival(sim_->Now() + horizon);
}

void GamingWorkload::ScheduleNextArrival(SimTime horizon_end) {
  const std::optional<SimTime> t =
      arrivals_.NextArrival(sim_->Now(), horizon_end, rng_);
  if (!t.has_value()) {
    return;
  }
  sim_->ScheduleAt(
      *t,
      [this, horizon_end] {
        StartSession();
        ScheduleNextArrival(horizon_end);
      },
      "gaming.arrival");
}

void GamingWorkload::StartSession() {
  Tracer& tracer = sim_->tracer();
  RequestContext ctx;
  ctx.id = next_request_id_++;
  TraceRequestSubmit(&tracer, &ctx, "gaming.session", sim_->Now());
  if (session_cap_ >= 0 && active_sessions() >= session_cap_) {
    ++capped_;
    sessions_capped_metric_->Increment();
    TraceRequestDrop(&tracer, &ctx);
    return;
  }
  // The session's slot steers the pick; its CPU only gates admission.
  const int soc_index = placer_.Pick(kSessionSlot, nullptr, &ctx);
  PlacementDemand demand = kSessionSlot;
  demand.cpu_util = kCpuUtilPerSession;
  if (soc_index < 0 || !view_.Fits(soc_index, demand)) {
    ++rejected_;
    sessions_rejected_metric_->Increment();
    TraceRequestDrop(&tracer, &ctx);
    return;
  }
  TraceRequestStep(&tracer, &ctx, "dispatch");
  const Reservation reservation = view_.Reserve(soc_index, demand);
  Network& net = cluster_->network();
  Result<int64_t> outbound = net.AddConstantLoad(
      cluster_->soc_node(soc_index), cluster_->external_node(),
      kOutboundPerSession);
  SOC_CHECK(outbound.ok()) << outbound.status().ToString();
  Result<int64_t> inbound = net.AddConstantLoad(
      cluster_->external_node(), cluster_->soc_node(soc_index),
      kInboundPerSession);
  SOC_CHECK(inbound.ok()) << inbound.status().ToString();

  const int64_t id = next_id_++;
  sessions_.emplace(id, Session{reservation, *outbound, *inbound, ctx});
  ++started_;
  sessions_started_metric_->Increment();

  const Duration length = Duration::SecondsF(
      rng_.LogNormalMedian(kMedianSession.ToSeconds(), kSessionSigma));
  sim_->ScheduleAfter(length, [this, id] { EndSession(id); },
                      "gaming.session_end");
}

void GamingWorkload::EndSession(int64_t id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return;
  }
  const Session& session = it->second;
  view_.Release(session.reservation);
  Network& net = cluster_->network();
  Status status = net.RemoveConstantLoad(session.outbound_load);
  SOC_CHECK(status.ok()) << status.ToString();
  status = net.RemoveConstantLoad(session.inbound_load);
  SOC_CHECK(status.ok()) << status.ToString();
  session_length_metric_->Observe((sim_->Now() - session.ctx.submit).ToMillis());
  TraceRequestComplete(&sim_->tracer(), &it->second.ctx);
  sessions_.erase(it);
}

void GamingWorkload::DigestState(StateDigest& digest) const {
  digest.Mix(rng_.StateFingerprint());
  view_.DigestState(digest);
  digest.Mix(static_cast<uint64_t>(sessions_.size()));
  for (const auto& [id, session] : sessions_) {
    digest.Mix(id);
    digest.Mix(session.reservation.soc_index);
    digest.Mix(session.reservation.fail_epoch);
    digest.Mix(session.outbound_load);
    digest.Mix(session.inbound_load);
  }
  digest.Mix(next_id_);
  digest.Mix(started_);
  digest.Mix(rejected_);
  digest.Mix(capped_);
  digest.Mix(session_cap_);
}

}  // namespace soccluster
