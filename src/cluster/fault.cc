#include "src/cluster/fault.h"

#include <iterator>
#include <utility>

#include "src/base/check.h"

namespace soccluster {

namespace {
// Trace track hosting fault/repair instants (SoC tracks start at 100, the
// GPU batch track is 90; 80 keeps the "faults" lane visually separate).
constexpr int64_t kFaultsTrack = 80;

// Indexed by FaultKind.
constexpr const char* kFaultKindNames[] = {
    "soc_transient", "soc_permanent", "pcb_failure",
    "uplink_flap",   "thermal_trip",  "slow_soc",
    "link_brownout", "flaky_heartbeat", "zombie"};
static_assert(std::size(kFaultKindNames) == kNumFaultKinds);
}  // namespace

const char* FaultKindName(FaultKind kind) {
  const auto k = static_cast<size_t>(kind);
  return k < std::size(kFaultKindNames) ? kFaultKindNames[k] : "unknown";
}

FaultInjector::FaultInjector(Simulator* sim, SocCluster* cluster,
                             FaultConfig config)
    : sim_(sim), cluster_(cluster), config_(config), rng_(config.seed) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK(cluster_ != nullptr);
  SOC_CHECK_GT(config_.mtbf_per_soc.nanos(), 0);
  SOC_CHECK_GE(config_.transient_fraction, 0.0);
  SOC_CHECK_LE(config_.transient_fraction, 1.0);
  MetricRegistry& metrics = sim_->metrics();
  for (int k = 0; k < kNumFaultKinds; ++k) {
    injected_metric_[k] = metrics.GetCounter(
        "fault.injected", {{"kind", FaultKindName(static_cast<FaultKind>(k))}});
  }
  soc_failures_metric_ = metrics.GetCounter("fault.soc_failures");
  repairs_metric_ = metrics.GetCounter("fault.repairs");
  sim_->tracer().SetTrackName(kFaultsTrack, "faults");
}

template <typename Set, typename Restore>
void FaultInjector::Excursion(FaultKind kind, int index, Duration duration,
                              Set set, Restore restore,
                              const char* restore_name) {
  Record(kind, index);
  set();
  // Flaps and thermal trips always end; gray kinds (kSlowSoc onwards) may
  // last until power-cycle.
  if (duration.nanos() > 0 || kind < FaultKind::kSlowSoc) {
    auto end = [this, restore, restore_name] {
      restore();
      sim_->tracer().Instant(restore_name, "fault", kFaultsTrack);
    };
    static_assert(sizeof(end) <= InlineCallback::kInlineBytes,
                  "restore captures must not box the event callback");
    sim_->ScheduleAfter(duration, std::move(end), "fault.restore");
  }
}

const FaultInjector::Process FaultInjector::kProcesses[] = {
    {&FaultConfig::mtbf_per_soc, Scope::kSocs,
     [](FaultInjector& f, int i) { f.FailSoc(i); }},
    {&FaultConfig::mtbf_per_pcb, Scope::kPcbs,
     [](FaultInjector& f, int p) { f.FailPcb(p); }},
    {&FaultConfig::uplink_flap_mtbf, Scope::kLinks,
     [](FaultInjector& f, int s) {
       if (f.cluster_->network().LinkIsUp(f.UplinkOf(s))) {
         f.Apply(FaultKind::kUplinkFlap, s, f.config_.uplink_flap_duration,
                 0.0);
       }
     }},
    {&FaultConfig::thermal_mtbf, Scope::kSocs,
     [](FaultInjector& f, int i) {
       // Only unthrottled SoCs trip, so a restore can never end a later
       // excursion; Fail() clears the factor itself.
       if (f.cluster_->soc(i).throttle_factor() >= 1.0) {
         f.Apply(FaultKind::kThermalTrip, i, f.config_.thermal_duration,
                 kThermalThrottleFactor);
       }
     }},
};

void FaultInjector::Start(Duration horizon) {
  SOC_CHECK(!started_)
      << "FaultInjector::Start called twice; that would double every "
         "failure chain";
  started_ = true;
  horizon_end_ = sim_->Now() + horizon;
  const int num_pcbs = cluster_->chassis().num_pcbs;
  for (int p = 0; p < static_cast<int>(std::size(kProcesses)); ++p) {
    const Process& process = kProcesses[p];
    if ((config_.*process.mtbf).nanos() <= 0) {
      continue;
    }
    const int targets = process.scope == Scope::kSocs   ? cluster_->num_socs()
                        : process.scope == Scope::kPcbs ? num_pcbs
                                                        : num_pcbs + 1;
    for (int i = 0; i < targets; ++i) {
      Chain(p, i);
    }
  }
}

void FaultInjector::Chain(int process, int index) {
  const Duration wait = DrawWait(config_.*kProcesses[process].mtbf);
  if (sim_->Now() + wait > horizon_end_) {
    return;  // Past the horizon: the chain ends.
  }
  sim_->ScheduleAfter(wait, [this, process, index] {
    // MTBFs are "under sustained load": SoC-scoped processes skip off,
    // booting and failed SoCs. The firing's own draws and repair/restore
    // events precede the next wait's draw.
    const Process& p = kProcesses[process];
    if (p.scope != Scope::kSocs || cluster_->soc(index).IsUsable()) {
      p.fire(*this, index);
    }
    Chain(process, index);
  }, "fault.arrival");
}

Duration FaultInjector::DrawWait(Duration mtbf) {
  // Sample in floating seconds: exponential draws at long MTBFs can exceed
  // the int64-nanosecond range of Duration, so overshoots are clamped to
  // just past the horizon (Chain discards them anyway).
  const double wait_s = rng_.Exponential(1.0 / mtbf.ToSeconds());
  const double room_s = (horizon_end_ - sim_->Now()).ToSeconds() + 1.0;
  return Duration::SecondsF(wait_s < room_s ? wait_s : room_s);
}

void FaultInjector::Record(FaultKind kind, int index) {
  ++faults_by_kind_[static_cast<size_t>(kind)];
  injected_metric_[static_cast<size_t>(kind)]->Increment();
  history_.push_back(FaultEvent{kind, index, sim_->Now()});
  sim_->tracer().Instant(FaultKindName(kind), "fault", kFaultsTrack);
}

void FaultInjector::DigestState(StateDigest& digest) const {
  digest.Mix(rng_.StateFingerprint());
  for (int64_t count : faults_by_kind_) {
    digest.Mix(count);
  }
  digest.Mix(static_cast<uint64_t>(history_.size()));
  for (const FaultEvent& event : history_) {
    digest.Mix(static_cast<int>(event.kind));
    digest.Mix(event.index);
    digest.Mix(event.at.nanos());
  }
}

// --- Fail-stop faults: per-SoC transient/permanent, correlated PCB ---

void FaultInjector::FailSoc(int soc_index) {
  const bool transient = config_.transient_fraction > 0.0 &&
                         rng_.Bernoulli(config_.transient_fraction);
  Record(transient ? FaultKind::kSocTransient : FaultKind::kSocPermanent,
         soc_index);
  FailOne(soc_index);
  const Duration outage =
      transient ? config_.transient_outage : config_.repair_time;
  if (outage.nanos() > 0) {
    // Repairs complete even past the horizon — only new faults are bounded.
    sim_->ScheduleAfter(
        outage, [this, soc_index] { CompleteSocRepair(soc_index); },
        "fault.repair");
  }
}

void FaultInjector::FailPcb(int pcb_index) {
  // Take down every currently-usable SoC on the board; SoCs already failed
  // by their own chain stay owned by that chain's repair.
  std::vector<int> victims;
  for (int i = 0; i < cluster_->num_socs(); ++i) {
    if (cluster_->PcbOf(i) == pcb_index && cluster_->soc(i).IsUsable()) {
      victims.push_back(i);
    }
  }
  if (victims.empty()) {
    return;
  }
  Record(FaultKind::kPcbFailure, pcb_index);
  for (int i : victims) {
    FailOne(i);
  }
  if (config_.pcb_repair_time.nanos() > 0) {
    sim_->ScheduleAfter(config_.pcb_repair_time,
                        [this, victims = std::move(victims)] {
                          for (int i : victims) {
                            CompleteSocRepair(i);
                          }
                        },
                        "fault.pcb_fix");
  }
}

void FaultInjector::FailOne(int soc_index) {
  cluster_->soc(soc_index).Fail();
  ++failures_injected_;
  soc_failures_metric_->Increment();
  if (on_failure_) {
    on_failure_(soc_index);
  }
}

void FaultInjector::CompleteSocRepair(int soc_index) {
  SocModel& soc = cluster_->soc(soc_index);
  if (soc.state() != SocPowerState::kFailed) {
    return;  // Already recovered externally (e.g. a manual Repair()).
  }
  soc.Repair();
  ++repairs_completed_;
  repairs_metric_->Increment();
  sim_->tracer().Instant("repair", "fault", kFaultsTrack);
  if (on_repair_) {
    on_repair_(soc_index);
  }
}

// --- Excursions: flaps, thermal trips and the gray kinds ---

LinkId FaultInjector::UplinkOf(int link_slot) const {
  const int num_pcbs = cluster_->chassis().num_pcbs;
  SOC_CHECK(link_slot >= 0 && link_slot <= num_pcbs)
      << "uplink slot " << link_slot << " outside [0, " << num_pcbs << "]";
  return link_slot < num_pcbs ? cluster_->pcb_uplink_out(link_slot)
                              : cluster_->esb_uplink_out();
}

void FaultInjector::Apply(FaultKind kind, int index, Duration duration,
                          double value) {
  if (kind == FaultKind::kUplinkFlap || kind == FaultKind::kLinkBrownout) {
    Network* net = &cluster_->network();
    const LinkId out = UplinkOf(index);
    if (kind == FaultKind::kUplinkFlap) {
      Excursion(
          kind, index, duration,
          [net, out] {
            net->SetLinkUp(out, false);
            net->SetLinkUp(out + 1, false);
          },
          [net, out] {
            net->SetLinkUp(out, true);
            net->SetLinkUp(out + 1, true);
          },
          "uplink_restore");
    } else {
      Excursion(
          kind, index, duration,
          [net, out, value] {
            net->SetLinkDegradation(out, value);
            net->SetLinkDegradation(out + 1, value);
          },
          [net, out] {
            net->SetLinkDegradation(out, 1.0);
            net->SetLinkDegradation(out + 1, 1.0);
          },
          "brownout_restore");
    }
    return;
  }
  SocModel* soc = &cluster_->soc(index);
  switch (kind) {
    case FaultKind::kThermalTrip:
    case FaultKind::kSlowSoc:
      Excursion(
          kind, index, duration, [soc, value] { soc->SetThrottleFactor(value); },
          [soc] { soc->SetThrottleFactor(1.0); },
          kind == FaultKind::kThermalTrip ? "thermal_restore"
                                          : "slow_soc_restore");
      return;
    case FaultKind::kFlakyHeartbeat:
      Excursion(
          kind, index, duration,
          [soc, value] { soc->SetHeartbeatLossProb(value); },
          [soc] { soc->SetHeartbeatLossProb(0.0); }, "flaky_heartbeat_restore");
      return;
    case FaultKind::kZombie:
      Excursion(
          kind, index, duration, [soc] { soc->SetZombie(true); },
          [soc] { soc->SetZombie(false); }, "zombie_restore");
      return;
    default:
      SOC_CHECK(false) << FaultKindName(kind) << " is not an excursion";
  }
}

void FaultInjector::Plant(FaultKind kind, int index, SimTime at,
                          Duration duration, double value) {
  if (kind == FaultKind::kLinkBrownout) {
    (void)UplinkOf(index);  // Rejects a bad slot now, not at `at`.
  }
  sim_->ScheduleAt(at, [this, kind, index, duration, value] {
    if (kind == FaultKind::kLinkBrownout || cluster_->soc(index).IsUsable()) {
      Apply(kind, index, duration, value);
    }
  }, "fault.plant");
}

void FaultInjector::PlantSlowSoc(int soc_index, SimTime at, Duration duration,
                                 double factor) {
  Plant(FaultKind::kSlowSoc, soc_index, at, duration, factor);
}

void FaultInjector::PlantLinkBrownout(int link_slot, SimTime at,
                                      Duration duration, double factor) {
  Plant(FaultKind::kLinkBrownout, link_slot, at, duration, factor);
}

void FaultInjector::PlantFlakyHeartbeat(int soc_index, SimTime at,
                                        Duration duration, double loss_prob) {
  Plant(FaultKind::kFlakyHeartbeat, soc_index, at, duration, loss_prob);
}

void FaultInjector::PlantZombie(int soc_index, SimTime at, Duration duration) {
  Plant(FaultKind::kZombie, soc_index, at, duration, 0.0);
}

}  // namespace soccluster
