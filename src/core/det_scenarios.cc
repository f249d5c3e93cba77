#include "src/core/det_scenarios.h"

#include <deque>
#include <memory>
#include <utility>

#include "src/base/check.h"
#include "src/cluster/cluster.h"
#include "src/core/chaos.h"
#include "src/core/flagships.h"
#include "src/core/orchestrator.h"
#include "src/core/overload.h"
#include "src/core/telemetry.h"
#include "src/trace/gaming_trace.h"
#include "src/workload/dl/serving.h"
#include "src/workload/video/live.h"

namespace soccluster {
namespace {

void MixTelemetry(StateDigest& digest, const ClusterTelemetry& telemetry) {
  const std::vector<TelemetrySample> samples = telemetry.samples();
  digest.Mix(static_cast<uint64_t>(samples.size()));
  for (const TelemetrySample& sample : samples) {
    digest.Mix(sample.time.nanos());
    digest.Mix(sample.power_watts);
    digest.Mix(sample.mean_cpu_util);
    digest.Mix(sample.esb_out_gbps);
    digest.Mix(sample.esb_in_gbps);
    digest.Mix(sample.usable_socs);
  }
}

}  // namespace

DetScenario DetGamingTraceScenario() {
  return [](Simulator& sim) {
    struct State {
      std::unique_ptr<SocCluster> cluster;
      std::unique_ptr<GamingWorkload> gaming;
      std::unique_ptr<ClusterTelemetry> telemetry;
    };
    auto state = std::make_shared<State>();
    state->cluster = std::make_unique<SocCluster>(
        &sim, DefaultChassisSpec(), Snapdragon865Spec());
    state->cluster->PowerOnAll(nullptr);
    SOC_CHECK(sim.RunFor(Duration::Seconds(30)).ok());
    // Jump to the evening ramp so the diurnal generator is busy.
    SOC_CHECK(sim.RunUntil(SimTime::Zero() + Duration::Hours(19)).ok());
    state->gaming = std::make_unique<GamingWorkload>(
        &sim, state->cluster.get(), GamingWorkloadConfig{});
    state->telemetry = std::make_unique<ClusterTelemetry>(
        &sim, state->cluster.get(), Duration::Minutes(1));
    state->gaming->Start(Duration::Hours(2));
    state->telemetry->Start();

    DetScenarioRun run;
    run.end = sim.Now() + Duration::Hours(2);
    run.keepalive = state;
    run.digest = [state] {
      StateDigest digest;
      state->cluster->DigestState(digest);
      state->gaming->DigestState(digest);
      MixTelemetry(digest, *state->telemetry);
      return digest.value();
    };
    return run;
  };
}

DetScenario DetLiveStreamScenario() {
  return [](Simulator& sim) {
    struct State {
      std::unique_ptr<SocCluster> cluster;
      std::unique_ptr<LiveTranscodingService> live;
      std::deque<int64_t> ids;
      std::unique_ptr<PeriodicTask> churn;
      int64_t tick = 0;
    };
    auto state = std::make_shared<State>();
    state->cluster = std::make_unique<SocCluster>(
        &sim, DefaultChassisSpec(), Snapdragon865Spec());
    state->cluster->PowerOnAll(nullptr);
    SOC_CHECK(sim.RunFor(Duration::Seconds(30)).ok());
    state->live = std::make_unique<LiveTranscodingService>(
        &sim, state->cluster.get(), PlacementPolicy::kSpread);

    // Stream churn: the fig07 sweep's start/stop dynamics as one rolling
    // scenario — admissions (both backends, mixed classes), queued
    // requests, and teardowns.
    State* s = state.get();
    state->churn = std::make_unique<PeriodicTask>(
        &sim, Duration::Seconds(10),
        [s] {
          ++s->tick;
          if (s->tick % 3 == 0 && s->ids.size() > 4) {
            SOC_CHECK(s->live->StopStream(s->ids.front()).ok());
            s->ids.pop_front();
            return;
          }
          const TranscodeBackend backend = s->tick % 2 == 0
                                               ? TranscodeBackend::kSocCpu
                                               : TranscodeBackend::kSocHwCodec;
          Result<int64_t> started = s->live->StartStream(
              VbenchVideo::kV3Game3, backend, MixedPriority(s->tick));
          if (started.ok()) {
            s->ids.push_back(started.value());
          }
          if (s->tick % 5 == 0) {
            s->live->RequestStream(VbenchVideo::kV1Holi,
                                   TranscodeBackend::kSocCpu,
                                   Priority::kBestEffort);
          }
        },
        "det.live.churn");
    state->churn->Start();

    // A failover mid-run (oracle notification, as the storm bench does)
    // and a repair: displaced streams re-home and walk the bitrate ladder.
    // Deliberately off the 10 s churn grid: a fault event tie-aligned with
    // a churn tick is order-ambiguous (start-then-fail vs fail-then-start
    // place streams differently), which the auditor flags -- the
    // tick-aligned variant lives on as its negative test.
    SocCluster* cluster = state->cluster.get();
    sim.ScheduleAfter(Duration::Minutes(4) + Duration::Millis(500),
                      [cluster, s] {
                        cluster->soc(7).Fail();
                        s->live->OnSocFailure(7);
                      },
                      "det.live.fault");
    sim.ScheduleAfter(Duration::Minutes(5) + Duration::Millis(500),
                      [cluster] { cluster->soc(7).Repair(); },
                      "det.live.repair");

    DetScenarioRun run;
    run.end = sim.Now() + Duration::Minutes(10);
    run.keepalive = state;
    run.digest = [state] {
      StateDigest digest;
      state->cluster->DigestState(digest);
      state->live->DigestState(digest);
      digest.Mix(state->tick);
      digest.Mix(static_cast<uint64_t>(state->ids.size()));
      for (const int64_t id : state->ids) {
        digest.Mix(id);
      }
      return digest.value();
    };
    return run;
  };
}

DetScenario DetFaultAvailabilityScenario() {
  return [](Simulator& sim) {
    struct State {
      std::unique_ptr<SocCluster> cluster;
      std::unique_ptr<Orchestrator> orchestrator;
      std::unique_ptr<ChaosRunner> chaos;
    };
    auto state = std::make_shared<State>();
    state->cluster = std::make_unique<SocCluster>(
        &sim, DefaultChassisSpec(), Snapdragon865Spec());
    state->cluster->PowerOnAll(nullptr);
    SOC_CHECK(sim.RunFor(Duration::Seconds(60)).ok());

    state->orchestrator = std::make_unique<Orchestrator>(
        &sim, state->cluster.get(), PlacementPolicy::kSpread);
    SOC_CHECK(state->orchestrator
                  ->RegisterWorkload("serving", ReplicaDemand{0.4, 2.0})
                  .ok());
    SOC_CHECK(state->orchestrator->ScaleTo("serving", 80).ok());

    // The 90-day chaos config compressed to a two-hour audit horizon:
    // faults every few minutes somewhere in the cluster, heartbeats every
    // 10 s on all 60 SoCs (the densest equal-timestamp batches in the
    // repo), repairs landing mid-run.
    ChaosConfig config;
    config.faults.mtbf_per_soc = Duration::Hours(12);
    config.faults.transient_fraction = 0.5;
    config.faults.transient_outage = Duration::Minutes(3);
    config.faults.repair_time = Duration::Minutes(30);
    config.faults.mtbf_per_pcb = Duration::Hours(120);
    config.faults.pcb_repair_time = Duration::Hours(1);
    config.faults.uplink_flap_mtbf = Duration::Hours(48);
    config.faults.uplink_flap_duration = Duration::Seconds(30);
    config.faults.thermal_mtbf = Duration::Hours(24);
    config.faults.thermal_duration = Duration::Minutes(10);
    config.faults.seed = 915;
    config.health.heartbeat_interval = Duration::Seconds(10);
    config.health.miss_threshold = 3;
    config.horizon = Duration::Hours(2);
    state->chaos = std::make_unique<ChaosRunner>(
        &sim, state->cluster.get(), state->orchestrator.get(), config);
    state->chaos->Start();

    DetScenarioRun run;
    run.end = sim.Now() + config.horizon + Duration::Minutes(30);
    run.keepalive = state;
    run.digest = [state] {
      StateDigest digest;
      state->cluster->DigestState(digest);
      state->orchestrator->DigestState(digest);
      state->chaos->injector().DigestState(digest);
      const ChaosReport report = state->chaos->Report();
      digest.Mix(report.availability);
      digest.Mix(report.mttr_hours);
      digest.Mix(report.detection_latency_ms);
      digest.Mix(report.failures);
      digest.Mix(report.repairs);
      digest.Mix(report.down_events);
      digest.Mix(report.up_events);
      digest.Mix(report.replicas_lost);
      digest.Mix(report.replicas_recovered);
      digest.Mix(report.replicas_pending);
      return digest.value();
    };
    return run;
  };
}

DetScenario DetOverloadStormScenario() {
  return [](Simulator& sim) {
    // The storm bench's scenario at half its fleet: one 1.5x surge whose
    // thermal excursion and two hard SoC faults collide with the 1 s/2 s
    // sampling and governor ticks.
    OverloadStormParams params;
    params.serving_socs = 20;
    params.multiplier = 1.5;
    params.surge = Duration::Minutes(2);
    params.live_streams = 12;
    params.functions = 10;
    params.function_rps = 10.0;
    params.function_seed = 45;
    auto storm = std::make_shared<OverloadStorm>(&sim, params);

    DetScenarioRun run;
    run.end = sim.Now() + params.surge + Duration::Minutes(3);
    run.keepalive = storm;
    run.digest = [storm] {
      StateDigest digest;
      storm->cluster->DigestState(digest);
      storm->fleet->DigestState(digest);
      storm->live->DigestState(digest);
      storm->serverless->DigestState(digest);
      storm->gaming->DigestState(digest);
      storm->orchestrator->DigestState(digest);
      storm->manager->governor().DigestState(digest);
      for (CircuitBreaker* breaker :
           {storm->manager->serving_breaker(), storm->manager->live_breaker(),
            storm->manager->serverless_breaker()}) {
        digest.Mix(breaker != nullptr);
        if (breaker != nullptr) {
          breaker->DigestState(digest);
        }
      }
      digest.Mix(storm->submit_counter);
      digest.Mix(storm->peak_level);
      digest.Mix(storm->source->generated());
      return digest.value();
    };
    return run;
  };
}

RideoutDayParams DetSessionsDayParams() {
  return RideoutDayParams{.seed = 77,
                          .users = 50'000,
                          .day_minutes = 6,
                          .socs = 8,
                          .rideout = true};
}

DetScenario DetSessionsDayScenario() {
  return [](Simulator& sim) {
    // The ride-out flagship at audit size: a compressed diurnal day whose
    // peak and flash crowd exceed the 8-SoC fleet while a fault burst
    // takes out a serving SoC, so wheel ticks land on arrival timestamps,
    // client timeouts race completions, budgeted retries meet the budget
    // and stale tickets report wasted outcomes, with the brownout
    // governor's sampling ticks running throughout.
    auto day = std::make_shared<RideoutDay>(&sim, DetSessionsDayParams());

    DetScenarioRun run;
    run.end = sim.Now() + day->horizon() + Duration::Minutes(2);
    run.keepalive = day;
    run.digest = [day] {
      StateDigest digest;
      day->cluster->DigestState(digest);
      day->fleet->DigestState(digest);
      day->tier->DigestState(digest);
      day->manager->governor().DigestState(digest);
      digest.Mix(day->peak_brownout);
      return digest.value();
    };
    return run;
  };
}

std::vector<DetScenarioSpec> AllDetScenarios() {
  return {
      {"det_fig05_gaming", &DetGamingTraceScenario},
      {"det_fig07_live", &DetLiveStreamScenario},
      {"det_fault_availability", &DetFaultAvailabilityScenario},
      {"det_overload_storm", &DetOverloadStormScenario},
      {"det_sessions_day", &DetSessionsDayScenario},
  };
}

}  // namespace soccluster
