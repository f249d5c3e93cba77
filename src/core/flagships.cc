#include "src/core/flagships.h"

#include <algorithm>
#include <utility>

#include "src/base/check.h"

namespace soccluster {
namespace {

// Values every overload storm shares (besides OverloadStorm::kDeadline and
// kWallCapWatts): the thermal excursion's speed, the serving queue cap and
// the best-effort batch replicas.
constexpr double kThrottleFactor = 0.65;
constexpr int kStormMaxQueue = 500;
constexpr int kBatchReplicas = 8;

SessionTierConfig RideoutTierConfig(const RideoutDayParams& params,
                                    double peak_rps,
                                    const RideoutDay::Trigger& trigger) {
  SessionTierConfig config;
  config.users = params.users;
  config.peak_rps = peak_rps;
  config.diurnal.day = Duration::Minutes(params.day_minutes);
  FlashCrowd crowd;
  crowd.start = trigger.flash_start;
  crowd.ramp = trigger.ramp;
  crowd.hold = trigger.hold;
  crowd.decay = trigger.decay;
  crowd.peak_multiplier = 4.0;
  config.flash_crowds.push_back(crowd);
  config.requests_per_session = 4.0;
  config.think_median = Duration::Seconds(20);
  config.think_sigma = 0.7;
  config.client_timeout = RideoutDay::kClientTimeout;
  config.client_deadline = RideoutDay::kClientDeadline;
  config.give_up_after = Duration::Minutes(4);
  config.retry_mode = params.rideout ? RetryMode::kBudgeted : RetryMode::kNaive;
  config.naive_retry_delay = Duration::Millis(250);
  config.backoff.max_attempts = 4;
  config.backoff.initial_backoff = Duration::Millis(200);
  config.backoff.max_backoff = Duration::Seconds(5);
  config.budget_tokens_per_success = 0.1;
  config.budget_max_tokens = 100.0;
  // Goodput-vs-time resolution: 120 windows per day.
  config.counter_window = config.diurnal.day / 120.0;
  config.seed = params.seed;
  return config;
}

ChaosConfig GrayChaosConfig(const GrayStormParams& params) {
  ChaosConfig config;
  // No random fail-stop faults: the storm is planted, so runs with and
  // without detection see exactly the same gray events.
  config.faults.mtbf_per_soc = Duration::Hours(24 * 365 * 100);
  config.faults.seed = params.seed;
  config.health.heartbeat_interval = Duration::Seconds(10);
  config.health.miss_threshold = 3;
  // Adaptive detection: phi absorbs the flaky SoC's lost beats once its
  // inter-arrival history reflects them, where fixed-miss keeps flapping.
  config.health.mode = DetectorMode::kPhiAccrual;
  config.health.phi_threshold = 8.0;
  config.health.seed = params.seed + 1;
  config.horizon = Duration::Hours(1);
  config.enable_gray = params.detect;
  config.gray.scorer.window = Duration::Seconds(15);
  config.gray.scorer.min_samples = 10;
  config.gray.tick = Duration::Seconds(15);
  config.gray.probe_interval = Duration::Seconds(10);
  // A deep-throttled canary (100 ms / 0.08 = 1.25 s) must fail probation so
  // the straggler is power-cycled rather than reinstated while still slow.
  config.gray.probe_latency_threshold = Duration::MillisF(250.0);
  config.gray.reboot_time = Duration::Minutes(1);
  return config;
}

// Powers the chassis on and runs the simulation through boot.
std::unique_ptr<SocCluster> BootChassis(Simulator* sim, Duration boot) {
  auto cluster = std::make_unique<SocCluster>(sim, DefaultChassisSpec(),
                                              Snapdragon865Spec());
  cluster->PowerOnAll(nullptr);
  SOC_CHECK(sim->RunFor(boot).ok());
  return cluster;
}

}  // namespace

Priority MixedPriority(int64_t n) {
  const int slot = static_cast<int>(n % 10);
  if (slot < 2) {
    return Priority::kCritical;
  }
  return slot < 7 ? Priority::kStandard : Priority::kBestEffort;
}

bool LadderOrderOk(const std::vector<BrownoutGovernor::LadderEvent>& events) {
  std::vector<std::pair<int, int>> engaged;
  for (const auto& event : events) {
    if (event.engage) {
      if (!engaged.empty() && event.rung < engaged.back().first) {
        return false;
      }
      engaged.emplace_back(event.rung, event.level);
    } else {
      if (engaged.empty() || event.rung != engaged.back().first ||
          event.level != engaged.back().second) {
        return false;
      }
      engaged.pop_back();
    }
  }
  return true;
}

RideoutDay::Trigger RideoutDay::MakeTrigger(Duration day) {
  Trigger trigger;
  // The flash crowd lands exactly on the diurnal peak (peak_hour 21).
  trigger.flash_start = SimTime::Zero() + day * (21.0 / 24.0);
  trigger.ramp = day / 30.0;
  trigger.hold = day / 12.0;
  trigger.decay = day / 60.0;
  trigger.clear = trigger.flash_start + trigger.ramp + trigger.hold +
                  trigger.decay * 2.0;
  return trigger;
}

RideoutDay::RideoutDay(Simulator* sim, const RideoutDayParams& params)
    : day(Duration::Minutes(params.day_minutes)), trigger(MakeTrigger(day)) {
  cluster = BootChassis(sim, Duration::Seconds(26));
  fleet = std::make_unique<SocServingFleet>(sim, cluster.get(),
                                            DlDevice::kSocCpu,
                                            DnnModel::kResNet50,
                                            Precision::kFp32);
  fleet->SetActiveCount(params.socs);
  fleet->SetExactLatencySamples(params.exact_latency);

  // Server-side posture: the naive server is the unprotected strawman — a
  // deep FIFO queue that happily serves work whose client has left.
  bmc = std::make_unique<BmcModel>(sim, cluster.get(), BmcConfig{});
  ClusterOverloadConfig overload_config;
  // Wall power includes the ~255 W host floor; only the SoC share of the
  // 450 W / 40-SoC budget scales with the fleet.
  overload_config.wall_cap = Power::Watts(255.0 + 195.0 * params.socs / 40.0);
  manager = std::make_unique<ClusterOverloadManager>(sim, cluster.get(),
                                                     bmc.get(),
                                                     overload_config);
  if (params.rideout) {
    fleet->SetDeadline(kClientDeadline);
    fleet->SetHonorClientDeadline(true);
    fleet->admission().SetMaxQueue(500);
    bmc->StartSampling();
    manager->AttachServing(fleet.get());
    manager->Start();
  } else {
    fleet->admission().SetMaxQueue(5000);
  }

  const double peak_rps = 0.95 * params.socs * fleet->PerSocThroughput();
  tier = std::make_unique<SessionTier>(
      sim, RideoutTierConfig(params, peak_rps, trigger),
      std::vector<SessionCohortConfig>{{"east", 0.55, 0.0},
                                       {"west", 0.45, 3.0}});
  SocServingFleet* serving = fleet.get();
  tier->SetSubmit(
      [serving](Priority priority, const ClientAttribution& client) {
        serving->Submit(priority, client);
      });
  fleet->SetClientObserver(tier->Observer());
  // The wheel grid makes tier/fleet timestamp collisions systematic; pin
  // the shared pipeline so tie-break audits stay clean.
  fleet->SetEventAnchorGroup(tier->anchor_group());

  // Correlated fault burst riding the flash crowd: ~10% of the serving
  // SoCs die in quick succession while the crowd holds, and repair 90 s
  // later. Victim indices scale with the fleet so 40 SoCs keep the
  // 12/17/22/27 pattern.
  SocCluster* chassis = cluster.get();
  const int fault_count = std::max(1, params.socs / 10);
  for (int k = 0; k < fault_count; ++k) {
    const int victim = (12 + 5 * k) * params.socs / 40;
    const SimTime fail_at =
        trigger.flash_start + trigger.ramp + Duration::Seconds(20 * k);
    sim->ScheduleAt(fail_at, [chassis, victim] {
      chassis->soc(victim).Fail();
    }, "rideout.fault");
    sim->ScheduleAt(fail_at + Duration::Seconds(90), [chassis, victim] {
      chassis->soc(victim).Repair();
    }, "rideout.repair");
  }

  tier->Start(horizon());
  probe = std::make_unique<PeriodicTask>(sim, Duration::Seconds(5), [this] {
    peak_brownout = std::max(peak_brownout, manager->brownout_level());
  }, "rideout.probe");
  probe->Start();
}

OverloadStorm::OverloadStorm(Simulator* sim, const OverloadStormParams& params)
    : min_active(params.serving_socs) {
  cluster = BootChassis(sim, Duration::Seconds(26));
  bmc = std::make_unique<BmcModel>(sim, cluster.get(), BmcConfig{});
  bmc->StartSampling();

  // The four services of the paper's workload mix, plus a best-effort
  // batch workload on the orchestrator.
  fleet = std::make_unique<SocServingFleet>(sim, cluster.get(),
                                            DlDevice::kSocCpu,
                                            DnnModel::kResNet50,
                                            Precision::kFp32);
  fleet->SetActiveCount(params.serving_socs);
  fleet->SetDeadline(kDeadline);
  fleet->admission().SetMaxQueue(kStormMaxQueue);
  live = std::make_unique<LiveTranscodingService>(sim, cluster.get(),
                                                  PlacementPolicy::kSpread);
  serverless = std::make_unique<ServerlessPlatform>(sim, cluster.get(),
                                                    ServerlessConfig{});
  gaming = std::make_unique<GamingWorkload>(sim, cluster.get(),
                                            GamingWorkloadConfig{});
  orchestrator = std::make_unique<Orchestrator>(sim, cluster.get(),
                                                PlacementPolicy::kSpread);
  Status status = orchestrator->RegisterWorkload(
      "batch", ReplicaDemand{0.05, 0.1}, Priority::kBestEffort);
  SOC_CHECK(status.ok()) << status.ToString();
  status = orchestrator->ScaleTo("batch", kBatchReplicas);
  SOC_CHECK(status.ok()) << status.ToString();

  ClusterOverloadConfig config;
  config.wall_cap = Power::Watts(kWallCapWatts);
  manager = std::make_unique<ClusterOverloadManager>(sim, cluster.get(),
                                                     bmc.get(), config);
  manager->AttachServing(fleet.get());
  manager->AttachLive(live.get());
  manager->AttachServerless(serverless.get());
  manager->AttachGaming(gaming.get());
  manager->AttachOrchestrator(orchestrator.get());
  manager->Start();

  // Background services: a bed of live streams (mixed classes), a
  // heavy-tailed serverless arrival process, diurnal gaming sessions.
  const Duration surge = params.surge;
  for (int i = 0; i < params.live_streams; ++i) {
    live->RequestStream(VbenchVideo::kV3Game3, TranscodeBackend::kSocCpu,
                        MixedPriority(i));
  }
  functions = std::make_unique<ServerlessWorkload>(
      sim, serverless.get(), params.functions, params.function_rps,
      params.function_seed);
  SOC_CHECK(functions->Start(surge).ok());
  gaming->Start(surge);

  // Serving surge at `multiplier` times the rated fleet throughput, from a
  // raw rated source: the closed-form offered load.
  const double rate =
      params.multiplier * params.serving_socs * fleet->PerSocThroughput();
  source = std::make_unique<OpenLoopSource>(sim, rate, surge, [this] {
    fleet->Submit(MixedPriority(submit_counter++));
  });
  source->Start();

  // Thermal excursion (§8): a third of the serving SoCs throttle for the
  // middle third of the surge — capacity sags exactly when the offered
  // load peaks.
  SocCluster* chassis = cluster.get();
  const int throttled = params.serving_socs / 3;
  sim->ScheduleAfter(surge / 3.0, [chassis, throttled] {
    for (int i = 0; i < throttled; ++i) {
      chassis->soc(i).SetThrottleFactor(kThrottleFactor);
    }
  }, "storm.throttle_on");
  sim->ScheduleAfter(surge * (2.0 / 3.0), [chassis, throttled] {
    for (int i = 0; i < throttled; ++i) {
      chassis->soc(i).SetThrottleFactor(1.0);
    }
  }, "storm.throttle_off");
  // One hard SoC fault per ten serving SoCs mid-surge, in the upper half of
  // the fleet: in-flight requests die and feed the serving circuit
  // breaker; boards come back a minute later. Oracle detection: the
  // failure notification fires with the fault so live streams and replicas
  // re-home at once.
  for (int k = 0; k < params.serving_socs / 10; ++k) {
    const int victim = params.serving_socs / 2 + 5 * k;
    sim->ScheduleAfter(surge / 4.0 + Duration::Seconds(15 * k),
                       [this, chassis, victim] {
                         chassis->soc(victim).Fail();
                         live->OnSocFailure(victim);
                         orchestrator->OnSocFailure(victim);
                       },
                       "storm.fault");
    sim->ScheduleAfter(surge / 4.0 + Duration::Seconds(15 * k + 60),
                       [chassis, victim] { chassis->soc(victim).Repair(); },
                       "storm.repair");
  }

  probe = std::make_unique<PeriodicTask>(sim, Duration::Seconds(1), [this] {
    peak_level = std::max(peak_level, manager->brownout_level());
    min_active = std::min(min_active, fleet->active_count());
  }, "storm.probe");
  probe->Start();
}

GrayStorm::GrayStorm(Simulator* sim, const GrayStormParams& params) {
  cluster = BootChassis(sim, Duration::Seconds(60));
  fleet = std::make_unique<SocServingFleet>(sim, cluster.get(),
                                            DlDevice::kSocGpu,
                                            DnnModel::kResNet50,
                                            Precision::kFp32);
  fleet->SetActiveCount(kActiveSocs);
  // Responses cross the PCB uplinks and count toward the recorded latency,
  // so the browned-out uplink surfaces in the per-SoC evidence.
  fleet->SetResponseSize(DataSize::Megabytes(0.5));
  fleet->SetLatencyIncludesResponse(true);

  chaos = std::make_unique<ChaosRunner>(sim, cluster.get(), nullptr,
                                        GrayChaosConfig(params));
  if (params.detect) {
    GrayFailureManager* gray = chaos->gray();
    fleet->SetAttemptObserver([gray](int soc, Duration latency, bool ok) {
      gray->scorer().Report(soc, latency, ok);
    });
    fleet->placer().set_penalty(
        [gray](int soc) { return gray->PlacementPenalty(soc); });
  }
  chaos->Start();

  if (params.plant) {
    FaultInjector& injector = chaos->injector();
    const SimTime storm_at = sim->Now() + Duration::Seconds(90);
    const Duration storm_len =
        Duration::Minutes(params.minutes) - Duration::Minutes(2);
    injector.PlantSlowSoc(kSlowSoc, storm_at, storm_len, 0.08);
    injector.PlantZombie(kZombieSoc, storm_at, storm_len);
    injector.PlantLinkBrownout(kBrownoutSlot, storm_at, storm_len, 0.15);
    injector.PlantFlakyHeartbeat(kFlakySoc, storm_at, storm_len, 0.5);
  }

  // ~50% of nominal fleet capacity: survivors can absorb the quarantined
  // SoCs' share, so detection converts tail pain into a clean p99 instead
  // of trading it for overload.
  const double rate =
      0.5 * static_cast<double>(kActiveSocs) * fleet->PerSocThroughput();
  SocServingFleet* serving = fleet.get();
  source = std::make_unique<OpenLoopSource>(
      sim, rate, Duration::Minutes(params.minutes),
      [serving] { serving->Submit(Priority::kCritical); });
  source->Start();
}

}  // namespace soccluster
