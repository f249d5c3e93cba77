#include "src/core/chaos.h"

#include "src/base/check.h"

namespace soccluster {

ChaosRunner::ChaosRunner(Simulator* sim, SocCluster* cluster,
                         Orchestrator* orchestrator, ChaosConfig config)
    : sim_(sim),
      cluster_(cluster),
      orchestrator_(orchestrator),
      config_(config),
      injector_(sim, cluster, config.faults),
      monitor_(sim, cluster, config.health) {
  SOC_CHECK(sim_ != nullptr);
  SOC_CHECK(cluster_ != nullptr);
  if (config_.enable_gray) {
    gray_ = std::make_unique<GrayFailureManager>(sim, cluster, config_.gray);
  }
  usable_gauge_ = sim_->metrics().GetGauge("chaos.usable_socs");
}

void ChaosRunner::Start() {
  // Measurement taps: the availability signal changes exactly at failure,
  // repair, and boot-completion instants.
  injector_.set_on_failure([this](int) { UpdateAvailability(); });
  injector_.set_on_repair([this](int soc_index) {
    UpdateAvailability();
    // Repair leaves the SoC in kOff; bring it back through a full boot
    // (boot latency applies). The health monitor notices the recovery on
    // the first healthy beat.
    (void)cluster_->soc(soc_index).PowerOn(
        cluster_->chassis().soc_boot, [this] { UpdateAvailability(); });
  });
  // The control loop proper: the orchestrator reacts only to heartbeat
  // verdicts, never to the injector directly.
  if (orchestrator_ != nullptr) {
    monitor_.set_on_soc_down(
        [this](int soc_index) { orchestrator_->OnSocFailure(soc_index); });
    monitor_.set_on_soc_up(
        [this](int soc_index) { orchestrator_->OnSocRecovered(soc_index); });
  }
  if (gray_ != nullptr) {
    // Quarantine drains like a failure verdict (the SoC is still usable,
    // so the orchestrator can migrate replicas instead of rebuilding);
    // reinstatement rejoins like a recovery. Escalation power-cycles the
    // board inside the manager — the availability tap records the dip, and
    // the monitor's down/up verdicts drive the orchestrator as usual.
    if (orchestrator_ != nullptr) {
      gray_->set_on_quarantine(
          [this](int soc_index) { orchestrator_->OnSocFailure(soc_index); });
      gray_->set_on_reinstate(
          [this](int soc_index) { orchestrator_->OnSocRecovered(soc_index); });
    }
    gray_->set_on_escalate([this](int) { UpdateAvailability(); });
  }
  UpdateAvailability();
  injector_.Start(config_.horizon);
  monitor_.Start();
  if (gray_ != nullptr) {
    gray_->Start();
  }
}

void ChaosRunner::UpdateAvailability() {
  const double usable = static_cast<double>(cluster_->NumUsable());
  availability_.Update(sim_->Now(),
                       usable / static_cast<double>(cluster_->num_socs()));
  usable_gauge_->Set(usable);
}

ChaosReport ChaosRunner::Report() {
  UpdateAvailability();  // Integrate the final segment up to Now().
  ChaosReport report;
  report.availability = availability_.Mean();
  report.mttr_hours = monitor_.observed_outage_hours().running().mean();
  report.detection_latency_ms = monitor_.detection_latency_ms().running().mean();
  report.failures = injector_.failures_injected();
  report.repairs = injector_.repairs_completed();
  report.down_events = monitor_.down_events();
  report.up_events = monitor_.up_events();
  if (orchestrator_ != nullptr) {
    report.replicas_lost = orchestrator_->replicas_lost();
    report.replicas_recovered = orchestrator_->replicas_recovered();
    report.replicas_pending = orchestrator_->replicas_pending();
  }
  if (gray_ != nullptr) {
    report.gray_suspects = gray_->suspects_total();
    report.gray_quarantines = gray_->quarantines_total();
    report.gray_reinstated = gray_->reinstated_total();
    report.gray_escalated = gray_->escalated_total();
  }
  return report;
}

}  // namespace soccluster
