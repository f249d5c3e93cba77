// Availability under the failure taxonomy (§8): a long chaos run over the
// 60-SoC cluster with per-SoC transient/permanent faults, correlated PCB
// failures, uplink flaps, and thermal trips, detected by heartbeats (no
// oracle) and repaired by the closed ChaosRunner control loop. Phase two
// replays a compressed failure storm against the DL-serving fleet, with and
// without request-level resilience (deadline + shedding + retry), to price
// what the mechanisms buy in goodput.
//
// Flags: --days=N (fault horizon, default 90), --seed=S (default 42),
//        --trace-out/--metrics-out/--digest-out/--slo-out=PATH (applied to
//        the resilient goodput run; --slo-out writes the per-class burn-rate
//        alert timeline for the failure storm).

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/base/check.h"
#include "src/base/digest.h"
#include "src/base/table.h"
#include "src/cluster/cluster.h"
#include "src/core/chaos.h"
#include "src/obs/bench_report.h"
#include "src/obs/flags.h"
#include "src/obs/metrics.h"
#include "src/trace/loadgen.h"
#include "src/workload/dl/serving.h"

namespace soccluster {
namespace {

ChaosConfig MakeChaosConfig(int days, uint64_t seed) {
  ChaosConfig config;
  config.faults.mtbf_per_soc = Duration::Hours(24 * 90);
  config.faults.transient_fraction = 0.5;
  config.faults.transient_outage = Duration::Minutes(3);
  config.faults.repair_time = Duration::Hours(24);
  config.faults.mtbf_per_pcb = Duration::Hours(24 * 300);
  config.faults.pcb_repair_time = Duration::Hours(48);
  config.faults.uplink_flap_mtbf = Duration::Hours(24 * 30);
  config.faults.uplink_flap_duration = Duration::Seconds(30);
  config.faults.thermal_mtbf = Duration::Hours(24 * 10);
  config.faults.thermal_duration = Duration::Minutes(10);
  config.faults.seed = seed;
  config.health.heartbeat_interval = Duration::Seconds(10);
  config.health.miss_threshold = 3;
  config.horizon = Duration::Hours(24 * days);
  return config;
}

void RunAvailability(int days, uint64_t seed, BenchReport* report) {
  Simulator sim(seed);
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  Status status = sim.RunFor(Duration::Seconds(60));
  SOC_CHECK(status.ok());

  Orchestrator orchestrator(&sim, &cluster, PlacementPolicy::kSpread);
  status = orchestrator.RegisterWorkload("serving", {0.4, 2.0, 0.0, 0.0});
  SOC_CHECK(status.ok()) << status.ToString();
  status = orchestrator.ScaleTo("serving", 80);
  SOC_CHECK(status.ok()) << status.ToString();

  const ChaosConfig config = MakeChaosConfig(days, seed);
  ChaosRunner chaos(&sim, &cluster, &orchestrator, config);
  chaos.Start();
  status = sim.RunFor(config.horizon);
  SOC_CHECK(status.ok());
  const ChaosReport result = chaos.Report();

  std::printf("=== Availability: %d-day chaos run (heartbeat detection, "
              "auto repair) ===\n\n", days);
  TextTable table({"metric", "value"});
  table.AddRow({"availability", FormatDouble(result.availability, 6)});
  table.AddRow({"failures injected", std::to_string(result.failures)});
  table.AddRow({"repairs completed", std::to_string(result.repairs)});
  table.AddRow({"PCB failures",
                std::to_string(chaos.injector().pcb_failures())});
  table.AddRow({"uplink flaps",
                std::to_string(chaos.injector().uplink_flaps())});
  table.AddRow({"thermal trips",
                std::to_string(chaos.injector().thermal_trips())});
  // The sketch-backed distributions tell the tail story the means hide: a
  // handful of slow detections or long outages dominate user-visible
  // downtime.
  // (Percentile reads 0 before the first sample.)
  const HistogramMetric& detect = chaos.monitor().detection_latency_ms();
  const HistogramMetric& outage = chaos.monitor().observed_outage_hours();
  const double detect_p50 = detect.Percentile(50);
  const double detect_p99 = detect.Percentile(99);
  const double outage_p50 = outage.Percentile(50);
  const double outage_p99 = outage.Percentile(99);
  table.AddRow({"detection latency (mean ms)",
                FormatDouble(result.detection_latency_ms, 0)});
  table.AddRow({"detection latency (p50 ms)", FormatDouble(detect_p50, 0)});
  table.AddRow({"detection latency (p99 ms)", FormatDouble(detect_p99, 0)});
  table.AddRow({"observed MTTR (mean h)", FormatDouble(result.mttr_hours, 2)});
  table.AddRow({"observed outage (p50 h)", FormatDouble(outage_p50, 2)});
  table.AddRow({"observed outage (p99 h)", FormatDouble(outage_p99, 2)});
  table.AddRow({"replicas lost", std::to_string(result.replicas_lost)});
  table.AddRow({"replicas recovered",
                std::to_string(result.replicas_recovered)});
  table.AddRow({"replicas still pending",
                std::to_string(result.replicas_pending)});
  std::printf("%s\n", table.Render().c_str());

  report->Add("availability", result.availability, "fraction");
  report->Add("failures", static_cast<double>(result.failures), "count");
  report->Add("repairs", static_cast<double>(result.repairs), "count");
  report->Add("pcb_failures",
              static_cast<double>(chaos.injector().pcb_failures()), "count");
  report->Add("uplink_flaps",
              static_cast<double>(chaos.injector().uplink_flaps()), "count");
  report->Add("thermal_trips",
              static_cast<double>(chaos.injector().thermal_trips()), "count");
  report->Add("detection_latency_ms", result.detection_latency_ms, "ms");
  report->Add("detection_latency_p50_ms", detect_p50, "ms");
  report->Add("detection_latency_p99_ms", detect_p99, "ms");
  report->Add("mttr_hours", result.mttr_hours, "hours");
  report->Add("outage_p50_hours", outage_p50, "hours");
  report->Add("outage_p99_hours", outage_p99, "hours");
  report->Add("replicas_lost", static_cast<double>(result.replicas_lost),
              "count");
  report->Add("replicas_recovered",
              static_cast<double>(result.replicas_recovered), "count");
  report->Add("replicas_pending", static_cast<double>(result.replicas_pending),
              "count");

  // The chaos run must exercise the failure path: a fault-free run, or
  // one that never repairs, would test nothing.
  report->Claim(result.failures > 0, "chaos run injected failures (%lld)",
                static_cast<long long>(result.failures));
  report->Claim(result.repairs > 0, "chaos run completed repairs (%lld)",
                static_cast<long long>(result.repairs));
  report->Claim(result.availability > 0.0 && result.availability < 1.0,
                "0 < availability < 1 (%.6f)", result.availability);
  report->Claim(result.detection_latency_ms > 0.0,
                "heartbeat detection is not oracle-instant (%.0f ms)",
                result.detection_latency_ms);
}

struct GoodputOutcome {
  int64_t generated = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t shed = 0;
  int64_t expired = 0;
  int64_t retries = 0;
  double p99_ms = 0.0;
  int64_t slo_fires = 0;
  int64_t slo_clears = 0;
  double Goodput() const {
    return generated > 0
               ? static_cast<double>(completed) / static_cast<double>(generated)
               : 0.0;
  }
};

// A compressed failure storm against the serving fleet: transient SoC
// faults every few minutes of fleet-time, with or without request-level
// resilience.
GoodputOutcome MeasureGoodput(bool resilient, uint64_t seed,
                              const ObsFlags* obs_flags) {
  Simulator sim(seed);
  if (obs_flags != nullptr) {
    ApplyObsFlags(*obs_flags, &sim.obs());
  }
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  Status status = sim.RunFor(Duration::Seconds(60));
  SOC_CHECK(status.ok());

  SocServingFleet fleet(&sim, &cluster, DlDevice::kSocGpu,
                        DnnModel::kResNet50, Precision::kFp32);
  // Five SoCs at ~85% load: one SoC down makes the survivors oversubscribed,
  // so every outage turns into a growing backlog.
  fleet.SetActiveCount(5);
  const double rate = 0.85 * 5.0 * fleet.PerSocThroughput();
  if (resilient) {
    fleet.SetDeadline(Duration::Seconds(2));
    fleet.admission().SetMaxQueue(200);
    RetryPolicy policy;
    policy.max_attempts = 4;
    policy.initial_backoff = Duration::Millis(50);
    fleet.SetRetryPolicy(policy, seed + 1);
    fleet.SetRetryBudget(/*tokens_per_success=*/0.2, /*max_tokens=*/50.0);
  }

  ChaosConfig config;
  config.faults.mtbf_per_soc = Duration::Minutes(2);
  config.faults.transient_fraction = 1.0;
  config.faults.transient_outage = Duration::Seconds(30);
  config.faults.seed = seed;
  config.horizon = Duration::Minutes(5);
  // No orchestrator: the fleet itself rides through the failures.
  ChaosRunner chaos(&sim, &cluster, nullptr, config);
  chaos.Start();

  OpenLoopSource source(&sim, rate, Duration::Minutes(5),
                        [&fleet] { fleet.Submit(); });
  source.Start();
  status = sim.RunFor(Duration::Minutes(8));  // Drain the tail.
  SOC_CHECK(status.ok());

  GoodputOutcome outcome;
  outcome.generated = source.generated();
  outcome.completed = fleet.completed();
  outcome.failed = fleet.failed();
  outcome.shed = fleet.shed();
  outcome.expired = fleet.deadline_expired();
  outcome.retries = fleet.retries();
  outcome.p99_ms =
      fleet.latencies().count() > 0 ? fleet.latencies().Percentile(99) : 0.0;
  // Drain-end evaluation records the clear for any alert still firing.
  const SloAlertTally slo = sim.obs().slos.TallyAlerts(sim.Now());
  outcome.slo_fires = slo.fired;
  outcome.slo_clears = slo.cleared;
  if (obs_flags != nullptr) {
    SOC_CHECK(FlushObsFlags(*obs_flags, sim.obs(), sim.Now()).ok());
    StateDigest digest;
    sim.DigestState(digest);
    cluster.DigestState(digest);
    fleet.DigestState(digest);
    SOC_CHECK(FlushDigestFlag(*obs_flags, digest.value()).ok());
  }
  return outcome;
}

void RunGoodput(uint64_t seed, const ObsFlags& obs_flags,
                BenchReport* report) {
  const GoodputOutcome naive =
      MeasureGoodput(/*resilient=*/false, seed, nullptr);
  // The resilient run is the showcase: it carries the trace/metrics/SLO
  // flags, so its burn-rate alert timeline is the one exported.
  const GoodputOutcome resilient =
      MeasureGoodput(/*resilient=*/true, seed, &obs_flags);

  std::printf("=== Goodput under a failure storm (ResNet-50, 5 SoCs at 85%% "
              "load, 30 s transient fault ~every 2 min/SoC) ===\n\n");
  TextTable table({"mode", "goodput", "p99 ms", "completed", "failed",
                   "expired", "shed", "retries"});
  table.AddRow({"naive", FormatDouble(naive.Goodput(), 4),
                FormatDouble(naive.p99_ms, 0),
                std::to_string(naive.completed), std::to_string(naive.failed),
                std::to_string(naive.expired), std::to_string(naive.shed),
                std::to_string(naive.retries)});
  table.AddRow({"resilient", FormatDouble(resilient.Goodput(), 4),
                FormatDouble(resilient.p99_ms, 0),
                std::to_string(resilient.completed),
                std::to_string(resilient.failed),
                std::to_string(resilient.expired),
                std::to_string(resilient.shed),
                std::to_string(resilient.retries)});
  std::printf("%s\n", table.Render().c_str());
  std::printf("Takeaway: the naive fleet loses every mid-flight request to a "
              "dead SoC and lets the backlog blow up the tail; deadline + "
              "shedding trade a bounded slice of goodput for a bounded p99, "
              "while retries recover the killed requests.\n");

  report->Add("goodput_naive", naive.Goodput(), "fraction");
  report->Add("goodput_resilient", resilient.Goodput(), "fraction");
  report->Add("storm_p99_ms_naive", naive.p99_ms, "ms");
  report->Add("storm_p99_ms_resilient", resilient.p99_ms, "ms");
  report->Add("storm_failed_naive", static_cast<double>(naive.failed),
              "count");
  report->Add("storm_failed_resilient",
              static_cast<double>(resilient.failed), "count");
  report->Add("storm_retries", static_cast<double>(resilient.retries),
              "count");
  report->Add("storm_deadline_expired",
              static_cast<double>(resilient.expired), "count");
  report->Add("storm_slo_fires", static_cast<double>(resilient.slo_fires),
              "count");
  report->Add("storm_slo_clears", static_cast<double>(resilient.slo_clears),
              "count");

  // A SoC fails stop, and the resilient fleet recovers every request it
  // dispatched onto one that died on the retry path: nothing is silently
  // lost, and the storm must actually exercise that path.
  report->Claim(resilient.failed == 0,
                "resilient storm fails no request (%lld failed)",
                static_cast<long long>(resilient.failed));
  report->Claim(resilient.retries >= 1,
                "resilient storm retries at least once (%lld retries)",
                static_cast<long long>(resilient.retries));
}

int Run(int days, uint64_t seed, const ObsFlags& obs_flags) {
  BenchReport report("fault_availability");
  report.SetParam("days", static_cast<int64_t>(days));
  report.SetParam("seed", static_cast<int64_t>(seed));
  RunAvailability(days, seed, &report);
  RunGoodput(seed, obs_flags, &report);
  return report.ExitCode();
}

}  // namespace
}  // namespace soccluster

int main(int argc, char** argv) {
  int days = 90;
  uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--days=", 7) == 0) {
      days = std::atoi(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = static_cast<uint64_t>(std::atoll(argv[i] + 7));
    }
  }
  if (days < 1) {
    days = 1;
  }
  const soccluster::ObsFlags obs_flags =
      soccluster::ParseObsFlags(argc, argv);
  return soccluster::Run(days, seed, obs_flags);
}
