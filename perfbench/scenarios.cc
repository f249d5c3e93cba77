#include "perfbench/scenarios.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>

#include "src/base/check.h"
#include "src/base/digest.h"
#include "src/base/stats.h"
#include "src/cluster/cluster.h"
#include "src/core/chaos.h"
#include "src/core/overload.h"
#include "src/trace/loadgen.h"
#include "src/trace/session.h"
#include "src/workload/dl/serving.h"

namespace perfbench {

using namespace soccluster;  // NOLINT: scenario code mirrors the benches.

void Harness::Advance(Simulator* sim, Duration d) {
  const int64_t start = HostNowNs();
  const SimTime until = sim->Now() + d;
  if (ledger != nullptr) {
    ledger->RunUntil(sim, until);
  } else {
    // The same stop event the traced run steps to, so both runs fire an
    // identical event sequence and end with equal state digests.
    bool stopped = false;
    sim->ScheduleAt(until, [&stopped] { stopped = true; }, "perfbench.stop");
    SOC_CHECK(sim->RunUntil(until).ok());
    SOC_CHECK(stopped);
  }
  wall_s += static_cast<double>(HostNowNs() - start) * 1e-9;
  timed_submits = submits;
}

void Harness::Flush(const Simulator& sim) {
  if (export_flags == nullptr) {
    return;
  }
  const int64_t start = HostNowNs();
  SOC_CHECK(FlushObsFlags(*export_flags, sim.obs(), sim.Now()).ok());
  wall_s += static_cast<double>(HostNowNs() - start) * 1e-9;
}

namespace {

// Latency objective of the completion stream the SLO kernel replays (the
// fleet's per-class SLO threshold and every scenario's client deadline).
constexpr Duration kGoodWithin = Duration::Seconds(2);

void Check(RepResult* result, bool ok, const std::string& what) {
  if (!ok) {
    result->failures.push_back(what);
  }
}

int64_t CounterValue(const Simulator& sim, std::string_view name) {
  int64_t total = 0;
  for (const MetricRegistry::Entry& entry : sim.obs().metrics.Entries()) {
    if (entry.counter != nullptr && entry.name == name) {
      total += entry.counter->value();
    }
  }
  return total;
}

// Folds the registry into per-layer counts: every counter summed over its
// labels (drop counters also per reason), the engine's pending high-water
// mark, admission sojourn totals and the SLO engine's totals (also per
// owning service).
void AddRegistry(const Simulator& sim, std::map<std::string, double>* counts) {
  for (const MetricRegistry::Entry& entry : sim.obs().metrics.Entries()) {
    if (entry.counter != nullptr) {
      const double value = static_cast<double>(entry.counter->value());
      (*counts)[entry.name] += value;
      for (const auto& [key, label] : entry.labels) {
        if (key == "reason") {
          (*counts)[entry.name + "." + label] += value;
        }
      }
    } else if (entry.gauge != nullptr &&
               entry.name == "sim.max_pending_events") {
      double& high = (*counts)[entry.name];
      high = std::max(high, entry.gauge->value());
    } else if (entry.histogram != nullptr &&
               entry.name == "qos.admission.sojourn_ms") {
      (*counts)["qos.admission.sojourn_sum_ms"] +=
          entry.histogram->running().sum();
      (*counts)["qos.admission.sojourn_count"] +=
          static_cast<double>(entry.histogram->count());
    }
  }
  for (const auto& tracker : sim.obs().slos.trackers()) {
    const double records =
        static_cast<double>(tracker->good_total() + tracker->bad_total());
    (*counts)["slo.records"] += records;
    (*counts)["slo.records." + tracker->spec().service] += records;
    (*counts)["slo.alerts"] += static_cast<double>(tracker->alerts().size());
  }
}

// Server-side request conservation: every submission is completed, shed,
// expired, failed, or still queued.
void CheckFleetConservation(const Simulator& sim, const SocServingFleet& fleet,
                            RepResult* result) {
  const int64_t submitted = CounterValue(sim, "dl.serving.submitted");
  const int64_t resolved = fleet.completed() + fleet.shed() +
                           fleet.deadline_expired() + fleet.failed() +
                           fleet.queue_length();
  Check(result, submitted == resolved,
        "fleet conservation: submitted " + std::to_string(submitted) +
            " != completed+shed+expired+failed+queued " +
            std::to_string(resolved));
}

void SetLatencies(const SampleStats& all, const SampleStats& critical,
                  RepResult* result) {
  result->latency_samples = static_cast<int64_t>(all.count());
  result->mean_ms = all.count() > 0 ? all.Mean() : 0.0;
  result->p50_ms = all.count() > 0 ? all.Percentile(50) : 0.0;
  result->p99_ms = all.count() > 0 ? all.Percentile(99) : 0.0;
  result->crit_samples = static_cast<int64_t>(critical.count());
  result->crit_p99_ms = critical.count() > 0 ? critical.Percentile(99) : 0.0;
}

// ---------------------------------------------------------------------------
// rideout_day / retry_storm: bench_metastable_rideout, one side of the day.

constexpr Duration kClientTimeout = Duration::Seconds(1);
constexpr Duration kClientDeadline = Duration::Seconds(2);

struct DayParams {
  const char* mode;  // The bench's report prefix ("rideout" or "naive").
  bool rideout;
  int64_t users;
  int day_minutes;
  int post_minutes;
  int socs;
};

constexpr DayParams kRideoutDay{"rideout", true, 1'000'000, 60, 30, 40};
// --mode=naive --users=250000 --socs=10 --day-minutes=20 (the post window
// clamps to half the day, as the bench does).
constexpr DayParams kRetryStorm{"naive", false, 250'000, 20, 10, 10};

struct Trigger {
  SimTime flash_start;
  Duration ramp;
  Duration hold;
  Duration decay;
  SimTime clear;
};

Trigger MakeTrigger(Duration day) {
  Trigger trigger;
  trigger.flash_start = SimTime::Zero() + day * (21.0 / 24.0);
  trigger.ramp = day / 30.0;
  trigger.hold = day / 12.0;
  trigger.decay = day / 60.0;
  trigger.clear = trigger.flash_start + trigger.ramp + trigger.hold +
                  trigger.decay * 2.0;
  return trigger;
}

SessionTierConfig DayTierConfig(const DayParams& params, uint64_t seed,
                                double peak_rps, const Trigger& trigger) {
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
  config.client_timeout = kClientTimeout;
  config.client_deadline = kClientDeadline;
  config.give_up_after = Duration::Minutes(4);
  config.retry_mode = params.rideout ? RetryMode::kBudgeted : RetryMode::kNaive;
  config.naive_retry_delay = Duration::Millis(250);
  config.backoff.max_attempts = 4;
  config.backoff.initial_backoff = Duration::Millis(200);
  config.backoff.max_backoff = Duration::Seconds(5);
  config.budget_tokens_per_success = 0.1;
  config.budget_max_tokens = 100.0;
  config.counter_window = config.diurnal.day / 120.0;
  config.seed = seed;
  return config;
}

RepResult RunDay(const DayParams& params, uint64_t seed, Harness* harness) {
  RepResult result;
  harness->BeginSetup();
  Simulator sim(seed);
  if (harness->export_flags != nullptr) {
    ApplyObsFlags(*harness->export_flags, &sim.obs());
  }
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  SOC_CHECK(sim.RunFor(Duration::Seconds(26)).ok());

  SocServingFleet fleet(&sim, &cluster, DlDevice::kSocCpu, DnnModel::kResNet50,
                        Precision::kFp32);
  fleet.SetActiveCount(params.socs);
  fleet.SetExactLatencySamples(true);

  BmcModel bmc(&sim, &cluster, BmcConfig{});
  ClusterOverloadConfig overload_config;
  overload_config.wall_cap = Power::Watts(255.0 + 195.0 * params.socs / 40.0);
  ClusterOverloadManager manager(&sim, &cluster, &bmc, overload_config);
  if (params.rideout) {
    fleet.SetDeadline(kClientDeadline);
    fleet.SetHonorClientDeadline(true);
    fleet.admission().SetMaxQueue(500);
    bmc.StartSampling();
    manager.AttachServing(&fleet);
    manager.Start();
  } else {
    fleet.admission().SetMaxQueue(5000);
  }

  const Duration day = Duration::Minutes(params.day_minutes);
  const Trigger trigger = MakeTrigger(day);
  const double peak_rps = 0.95 * params.socs * fleet.PerSocThroughput();
  SessionTier tier(&sim, DayTierConfig(params, seed, peak_rps, trigger),
                   {{"east", 0.55, 0.0}, {"west", 0.45, 3.0}});
  tier.SetSubmit(
      [&fleet, harness](Priority priority, const ClientAttribution& client) {
        Ledger::Span span(harness->ledger, Layer::kWorkload);
        ++harness->submits;
        fleet.Submit(priority, client);
      });
  if (harness->ledger == nullptr) {
    fleet.SetClientObserver(tier.Observer());
  } else {
    fleet.SetClientObserver([observer = tier.Observer(), harness, &sim](
                                uint64_t ticket, ClientOutcome outcome,
                                Duration latency) {
      harness->ledger->RecordOutcome(
          sim.Now(),
          outcome == ClientOutcome::kSuccess && latency <= kGoodWithin);
      Ledger::Span span(harness->ledger, Layer::kTrace);
      observer(ticket, outcome, latency);
    });
  }
  fleet.SetEventAnchorGroup(tier.anchor_group());

  const int fault_count = std::max(1, params.socs / 10);
  for (int k = 0; k < fault_count; ++k) {
    const int victim = (12 + 5 * k) * params.socs / 40;
    const SimTime fail_at =
        trigger.flash_start + trigger.ramp + Duration::Seconds(20 * k);
    sim.ScheduleAt(fail_at, [&cluster, victim] {
      cluster.soc(victim).Fail();
    }, "rideout.fault");
    sim.ScheduleAt(fail_at + Duration::Seconds(90), [&cluster, victim] {
      cluster.soc(victim).Repair();
    }, "rideout.repair");
  }

  const Duration horizon = day * 1.5;
  tier.Start(horizon);
  int peak_brownout = 0;
  PeriodicTask probe(&sim, Duration::Seconds(5), [&manager, &peak_brownout] {
    peak_brownout = std::max(peak_brownout, manager.brownout_level());
  }, "rideout.probe");
  probe.Start();
  harness->EndSetup();
  if (harness->setup_only) {
    return result;
  }
  harness->Advance(&sim, horizon + Duration::Minutes(5));

  // The bench's outcome, key for key.
  const Duration window = tier.config().counter_window;
  const int64_t window_ns = window.nanos();
  const size_t flash_idx =
      static_cast<size_t>(trigger.flash_start.nanos() / window_ns);
  const size_t clear_idx = static_cast<size_t>(
      (trigger.clear.nanos() + window_ns - 1) / window_ns);
  const size_t post_end =
      clear_idx + static_cast<size_t>(
                      Duration::Minutes(params.post_minutes).nanos() / window_ns);
  const double pre_goodput =
      tier.GoodputOver(flash_idx >= 10 ? flash_idx - 10 : 0, flash_idx);
  const double post_goodput = tier.GoodputOver(clear_idx, post_end);
  size_t collapsed = 0;
  for (size_t w = clear_idx; w < post_end; ++w) {
    if (tier.GoodputOver(w, w + 1) >= 0.5 * pre_goodput) {
      break;
    }
    ++collapsed;
  }
  const double recover_bar = 0.95 * pre_goodput;
  double recovery_minutes = -1.0;
  for (size_t w = clear_idx; w + 3 <= post_end; ++w) {
    if (tier.GoodputOver(w, w + 3) >= recover_bar) {
      recovery_minutes = static_cast<double>(w - clear_idx) *
                         window.ToSeconds() / 60.0;
      break;
    }
  }
  const bool recovered =
      recovery_minutes >= 0.0 &&
      tier.GoodputOver(post_end >= 3 ? post_end - 3 : 0, post_end) >=
          recover_bar;
  const SampleStats& critical = fleet.latencies_of(Priority::kCritical);
  const double critical_p99_ms =
      critical.count() > 0 ? critical.Percentile(99) : 0.0;
  sim.obs().slos.Advance(sim.Now());
  int64_t slo_fires = 0;
  int64_t slo_clears = 0;
  for (const auto& tracker : sim.obs().slos.trackers()) {
    for (const SloAlert& alert : tracker->alerts()) {
      ++(alert.firing ? slo_fires : slo_clears);
    }
  }
  harness->Flush(sim);

  const double amplification =
      tier.issued() > 0 ? static_cast<double>(tier.submitted()) /
                              static_cast<double>(tier.issued())
                        : 0.0;
  const std::string prefix = std::string(params.mode) + ".";
  auto add = [&](const char* key, double value) {
    result.bench.emplace_back(prefix + key, value);
  };
  add("sessions", static_cast<double>(tier.sessions_started()));
  add("issued", static_cast<double>(tier.issued()));
  add("submitted", static_cast<double>(tier.submitted()));
  add("amplification", amplification);
  add("good", static_cast<double>(tier.good()));
  add("timeouts", static_cast<double>(tier.timeouts()));
  add("retries", static_cast<double>(tier.retries()));
  add("retries_denied", static_cast<double>(tier.retries_denied()));
  add("give_ups", static_cast<double>(tier.give_ups()));
  add("wasted", static_cast<double>(tier.wasted()));
  add("pre_goodput", pre_goodput);
  add("post_goodput", post_goodput);
  add("collapsed_minutes",
      static_cast<double>(collapsed) * window.ToSeconds() / 60.0);
  add("recovered", recovered ? 1.0 : 0.0);
  add("recovery_minutes", recovery_minutes);
  add("critical_p99_ms", critical_p99_ms);
  add("peak_brownout_level", static_cast<double>(peak_brownout));
  add("slo_fires", static_cast<double>(slo_fires));
  add("slo_clears", static_cast<double>(slo_clears));

  result.issued = tier.issued();
  result.good = tier.good();
  SetLatencies(fleet.latencies(), critical, &result);

  if (params.rideout) {
    Check(&result, recovered, "ride-out did not recover after the trigger");
    Check(&result, critical_p99_ms < 2000.0,
          "ride-out critical p99 " + std::to_string(critical_p99_ms) +
              " ms is not under 2000 ms");
  } else {
    Check(&result, !recovered && post_goodput < 0.5 * pre_goodput,
          "naive retries did not stay collapsed");
  }

  StateDigest digest;
  sim.DigestState(digest);
  cluster.DigestState(digest);
  fleet.DigestState(digest);
  tier.DigestState(digest);
  manager.governor().DigestState(digest);
  result.digest = digest.value();

  auto& counts = result.counts;
  AddRegistry(sim, &counts);
  counts["trace.sessions"] = static_cast<double>(tier.sessions_started());
  counts["trace.issued"] = static_cast<double>(tier.issued());
  counts["trace.submitted"] = static_cast<double>(tier.submitted());
  counts["trace.good"] = static_cast<double>(tier.good());
  counts["trace.wasted"] = static_cast<double>(tier.wasted());
  counts["workload.completed"] = static_cast<double>(fleet.completed());
  counts["workload.shed"] = static_cast<double>(fleet.shed());
  counts["workload.expired"] = static_cast<double>(fleet.deadline_expired());

  // Conservation on both sides of the client contract, checked on a
  // drained system: every reported value is taken, so simulate on
  // (untimed) until the last session has ended.
  for (int minute = 0; minute < 120 && tier.live_sessions() > 0; ++minute) {
    SOC_CHECK(sim.RunFor(Duration::Minutes(1)).ok());
  }
  CheckFleetConservation(sim, fleet, &result);
  Check(&result, tier.submitted() == CounterValue(sim, "dl.serving.submitted"),
        "every client attempt reaches the fleet");
  Check(&result,
        tier.live_sessions() == 0 &&
            tier.issued() == tier.completed() + tier.give_ups(),
        "client conservation: issued != completed + given up");
  int64_t answered = tier.wasted();
  for (size_t c = 0; c < tier.cohort_count(); ++c) {
    answered += tier.cohort_totals(c).completed + tier.cohort_totals(c).rejected;
  }
  Check(&result, answered == tier.submitted(),
        "client conservation: an attempt was answered zero or two times");
  return result;
}

// ---------------------------------------------------------------------------
// service_mix_storm: bench_overload_storm in its default rated-source mode.

constexpr double kMultipliers[] = {0.5, 1.0, 1.5, 2.0, 2.5, 3.0};
constexpr int kStormServingSocs = 40;
constexpr int kSurgeMinutes = 5;
constexpr Duration kStormDeadline = Duration::Seconds(2);

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

struct StormRun {
  double goodput = 0.0;
  double critical_p99_ms = 0.0;
  int64_t critical_samples = 0;
  bool ladder_order_ok = false;
};

StormRun RunStorm(double multiplier, uint64_t seed, Harness* harness,
                  SampleStats* pooled, StateDigest* sweep_digest,
                  RepResult* result) {
  harness->BeginSetup();
  Simulator sim(seed);
  // The bench carries the obs flags on its showcase 3x run.
  const bool last = multiplier == kMultipliers[std::size(kMultipliers) - 1];
  if (last && harness->export_flags != nullptr) {
    ApplyObsFlags(*harness->export_flags, &sim.obs());
  }
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  SOC_CHECK(sim.RunFor(Duration::Seconds(26)).ok());
  BmcModel bmc(&sim, &cluster, BmcConfig{});
  bmc.StartSampling();

  SocServingFleet fleet(&sim, &cluster, DlDevice::kSocCpu,
                        DnnModel::kResNet50, Precision::kFp32);
  fleet.SetActiveCount(kStormServingSocs);
  fleet.SetDeadline(kStormDeadline);
  fleet.admission().SetMaxQueue(500);
  LiveTranscodingService live(&sim, &cluster, PlacementPolicy::kSpread);
  ServerlessPlatform serverless(&sim, &cluster, ServerlessConfig{});
  GamingWorkload gaming(&sim, &cluster, GamingWorkloadConfig{});
  Orchestrator orchestrator(&sim, &cluster, PlacementPolicy::kSpread);
  Status status = orchestrator.RegisterWorkload(
      "batch", ReplicaDemand{0.05, 0.1}, Priority::kBestEffort);
  SOC_CHECK(status.ok()) << status.ToString();
  status = orchestrator.ScaleTo("batch", 8);
  SOC_CHECK(status.ok()) << status.ToString();

  ClusterOverloadConfig config;
  config.wall_cap = Power::Watts(450.0);
  ClusterOverloadManager manager(&sim, &cluster, &bmc, config);
  manager.AttachServing(&fleet);
  manager.AttachLive(&live);
  manager.AttachServerless(&serverless);
  manager.AttachGaming(&gaming);
  manager.AttachOrchestrator(&orchestrator);
  manager.Start();

  const Duration surge = Duration::Minutes(kSurgeMinutes);
  for (int i = 0; i < 30; ++i) {
    live.RequestStream(VbenchVideo::kV3Game3, TranscodeBackend::kSocCpu,
                       MixedPriority(i));
  }
  ServerlessWorkload functions(&sim, &serverless, /*num_functions=*/20,
                               /*total_rate_per_s=*/20.0 * multiplier,
                               seed + 3);
  SOC_CHECK(functions.Start(surge).ok());
  gaming.Start(surge);

  const double rate =
      multiplier * kStormServingSocs * fleet.PerSocThroughput();
  int64_t submit_counter = 0;
  OpenLoopSource source(&sim, rate, surge,
                        [&fleet, &submit_counter, harness] {
                          Ledger::Span span(harness->ledger, Layer::kWorkload);
                          ++harness->submits;
                          fleet.Submit(MixedPriority(submit_counter++));
                        });
  source.Start();
  if (harness->ledger != nullptr) {
    fleet.SetAttemptObserver([harness, &sim](int, Duration latency, bool ok) {
      harness->ledger->RecordOutcome(sim.Now(), ok && latency <= kGoodWithin);
    });
  }

  sim.ScheduleAfter(surge / 3.0, [&cluster] {
    for (int i = 0; i < kStormServingSocs / 3; ++i) {
      cluster.soc(i).SetThrottleFactor(0.65);
    }
  });
  sim.ScheduleAfter(surge * (2.0 / 3.0), [&cluster] {
    for (int i = 0; i < kStormServingSocs / 3; ++i) {
      cluster.soc(i).SetThrottleFactor(1.0);
    }
  });
  for (int k = 0; k < 4; ++k) {
    const int victim = 20 + 5 * k;
    sim.ScheduleAfter(surge / 4.0 + Duration::Seconds(15 * k),
                      [&cluster, &live, &orchestrator, victim] {
                        cluster.soc(victim).Fail();
                        live.OnSocFailure(victim);
                        orchestrator.OnSocFailure(victim);
                      });
    sim.ScheduleAfter(surge / 4.0 + Duration::Seconds(15 * k + 60),
                      [&cluster, victim] { cluster.soc(victim).Repair(); });
  }

  int peak_level = 0;
  int min_active = kStormServingSocs;
  PeriodicTask probe(&sim, Duration::Seconds(1),
                     [&peak_level, &min_active, &manager, &fleet] {
                       peak_level =
                           std::max(peak_level, manager.brownout_level());
                       min_active = std::min(min_active, fleet.active_count());
                     });
  probe.Start();
  harness->EndSetup();
  if (harness->setup_only) {
    return StormRun{};
  }
  harness->Advance(&sim, surge);
  harness->Advance(&sim, Duration::Minutes(10));  // Drain.

  int64_t completed = 0;
  int64_t expired = 0;
  int64_t shed[kNumPriorities] = {};
  double p99_ms[kNumPriorities] = {};
  SampleStats exact;
  for (int c = 0; c < kNumPriorities; ++c) {
    const Priority p = static_cast<Priority>(c);
    completed += fleet.completed_of(p);
    shed[c] = fleet.shed_of(p);
    expired += fleet.expired_of(p);
    p99_ms[c] = fleet.latencies_of(p).count() > 0
                    ? fleet.latencies_of(p).Percentile(99)
                    : 0.0;
    for (const double sample : fleet.latencies_of(p).samples()) {
      exact.Add(sample);
      pooled->Add(sample);
    }
  }
  const int64_t generated = source.generated();
  StormRun run;
  run.goodput = generated > 0 ? static_cast<double>(completed) /
                                    static_cast<double>(generated)
                              : 0.0;
  run.critical_p99_ms = p99_ms[0];
  run.critical_samples =
      static_cast<int64_t>(fleet.latencies_of(Priority::kCritical).count());
  const CircuitBreaker* breaker = manager.serving_breaker();
  SOC_CHECK(breaker != nullptr);
  run.ladder_order_ok = LadderOrderOk(manager.governor().history());
  sim.obs().slos.Advance(sim.Now());
  int64_t slo_fires = 0;
  int64_t slo_clears = 0;
  for (const auto& tracker : sim.obs().slos.trackers()) {
    for (const SloAlert& alert : tracker->alerts()) {
      ++(alert.firing ? slo_fires : slo_clears);
    }
  }
  const bool released_clean =
      !manager.IsBrownedOut() &&
      manager.governor().engagements() == manager.governor().releases() &&
      fleet.admission().admit_floor() == Priority::kBestEffort &&
      live.brownout_rung() == 0 && !serverless.defer_cold_starts() &&
      gaming.session_cap() == -1 && !orchestrator.placement_hold();
  if (last) {
    harness->Flush(sim);
  }

  char prefix[32];
  std::snprintf(prefix, sizeof(prefix), "x%.1f.", multiplier);
  auto add = [&](const char* key, double value) {
    result->bench.emplace_back(std::string(prefix) + key, value);
  };
  add("goodput", run.goodput);
  add("generated", static_cast<double>(generated));
  add("completed", static_cast<double>(completed));
  add("critical_p99_ms", p99_ms[0]);
  add("standard_p99_ms", p99_ms[1]);
  add("besteffort_p99_ms", p99_ms[2]);
  add("shed_critical", static_cast<double>(shed[0]));
  add("shed_standard", static_cast<double>(shed[1]));
  add("shed_besteffort", static_cast<double>(shed[2]));
  add("deadline_expired", static_cast<double>(expired));
  add("brownout_peak_level", static_cast<double>(peak_level));
  add("min_active_socs", static_cast<double>(min_active));
  add("breaker_opens", static_cast<double>(breaker->opens()));
  add("breaker_rejected", static_cast<double>(breaker->rejected()));
  add("ladder_engagements",
      static_cast<double>(manager.governor().engagements()));
  add("ladder_releases", static_cast<double>(manager.governor().releases()));
  add("live_demoted", static_cast<double>(live.brownout_demoted()));
  add("live_shed", static_cast<double>(live.requests_shed()));
  add("serverless_deferred", static_cast<double>(serverless.stats().deferred));
  add("serverless_shed", static_cast<double>(serverless.stats().qos_shed));
  add("gaming_capped", static_cast<double>(gaming.sessions_capped()));
  add("replicas_preempted",
      static_cast<double>(orchestrator.replicas_preempted()));
  add("ladder_order_ok", run.ladder_order_ok ? 1.0 : 0.0);
  add("released_clean", released_clean ? 1.0 : 0.0);
  add("sketch_p99_ms",
      sim.metrics().GetHistogram("dl.serving.latency_ms")->Percentile(99));
  add("exact_p99_ms", exact.count() > 0 ? exact.Percentile(99) : 0.0);
  add("slo_fires", static_cast<double>(slo_fires));
  add("slo_clears", static_cast<double>(slo_clears));

  result->issued += generated;
  result->good += completed;
  CheckFleetConservation(sim, fleet, result);
  Check(result, generated == CounterValue(sim, "dl.serving.submitted"),
        std::string(prefix) + " every generated request reaches the fleet");

  StateDigest digest;
  sim.DigestState(digest);
  cluster.DigestState(digest);
  fleet.DigestState(digest);
  live.DigestState(digest);
  serverless.DigestState(digest);
  gaming.DigestState(digest);
  orchestrator.DigestState(digest);
  sweep_digest->Mix(digest.value());

  AddRegistry(sim, &result->counts);
  result->counts["workload.completed"] += static_cast<double>(completed);
  result->counts["workload.shed"] += static_cast<double>(fleet.shed());
  result->counts["workload.expired"] += static_cast<double>(expired);
  return run;
}

RepResult RunServiceMix(uint64_t seed, Harness* harness) {
  RepResult result;
  SampleStats pooled;
  StateDigest digest;
  std::vector<StormRun> runs;
  for (const double multiplier : kMultipliers) {
    runs.push_back(
        RunStorm(multiplier, seed, harness, &pooled, &digest, &result));
  }
  if (harness->setup_only) {
    return result;
  }
  const StormRun& top = runs.back();
  result.latency_samples = static_cast<int64_t>(pooled.count());
  result.mean_ms = pooled.Mean();
  result.p50_ms = pooled.Percentile(50);
  result.p99_ms = pooled.Percentile(99);
  // The paper-facing claim is critical p99 at the 3x peak of the sweep.
  result.crit_p99_ms = top.critical_p99_ms;
  result.crit_samples = top.critical_samples;
  result.digest = digest.value();
  for (size_t i = 1; i < runs.size(); ++i) {
    Check(&result, runs[i].goodput <= runs[i - 1].goodput,
          "goodput is not monotone in offered load");
  }
  for (const StormRun& run : runs) {
    Check(&result, run.ladder_order_ok, "brownout ladder broke LIFO order");
  }
  Check(&result, top.critical_p99_ms < kStormDeadline.ToMillis(),
        "critical p99 at 3x is not under the deadline");
  return result;
}

// ---------------------------------------------------------------------------
// gray_storm: bench_gray_failure's detection-on storm.

constexpr int kGrayActiveSocs = 11;
constexpr int kSlowSoc = 1;
constexpr int kZombieSoc = 4;
constexpr int kBrownoutSlot = 2;
constexpr int kFlakySoc = 30;
constexpr int kGrayMinutes = 8;

ChaosConfig GrayConfig(uint64_t seed) {
  ChaosConfig config;
  config.faults.mtbf_per_soc = Duration::Hours(24 * 365 * 100);
  config.faults.seed = seed;
  config.health.heartbeat_interval = Duration::Seconds(10);
  config.health.miss_threshold = 3;
  config.health.mode = DetectorMode::kPhiAccrual;
  config.health.phi_threshold = 8.0;
  config.health.seed = seed + 1;
  config.horizon = Duration::Hours(1);
  config.enable_gray = true;
  config.gray.scorer.window = Duration::Seconds(15);
  config.gray.scorer.min_samples = 10;
  config.gray.tick = Duration::Seconds(15);
  config.gray.probe_interval = Duration::Seconds(10);
  config.gray.probe_latency_threshold = Duration::MillisF(250.0);
  config.gray.reboot_time = Duration::Minutes(1);
  return config;
}

struct GrayRun {
  int64_t suspects = 0;
  int64_t quarantines = 0;
  uint64_t quarantined_mask = 0;  // Bit i: SoC i was seen quarantined.
};

GrayRun RunGrayStorm(bool plant, uint64_t seed, Harness* harness,
                     RepResult* result) {
  harness->BeginSetup();
  Simulator sim(seed);
  if (harness->export_flags != nullptr) {
    ApplyObsFlags(*harness->export_flags, &sim.obs());
  }
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  SOC_CHECK(sim.RunFor(Duration::Seconds(60)).ok());

  SocServingFleet fleet(&sim, &cluster, DlDevice::kSocGpu, DnnModel::kResNet50,
                        Precision::kFp32);
  fleet.SetActiveCount(kGrayActiveSocs);
  fleet.SetResponseSize(DataSize::Megabytes(0.5));
  fleet.SetLatencyIncludesResponse(true);

  GrayRun run;
  ChaosRunner chaos(&sim, &cluster, nullptr, GrayConfig(seed));
  GrayFailureManager* gray = chaos.gray();
  fleet.SetAttemptObserver(
      [gray, harness, &sim](int soc, Duration latency, bool ok) {
        if (harness->ledger != nullptr) {
          harness->ledger->RecordOutcome(sim.Now(),
                                         ok && latency <= kGoodWithin);
        }
        Ledger::Span span(harness->ledger, Layer::kCore);
        gray->scorer().Report(soc, latency, ok);
      });
  fleet.placer().set_penalty(
      [gray](int soc) { return gray->PlacementPenalty(soc); });
  // ChaosRunner without an orchestrator leaves this hook free; it only
  // records which SoCs went into quarantine.
  gray->set_on_quarantine(
      [&run](int soc) { run.quarantined_mask |= uint64_t{1} << soc; });
  chaos.Start();

  if (plant) {
    const SimTime storm_at = sim.Now() + Duration::Seconds(90);
    const Duration storm_len =
        Duration::Minutes(kGrayMinutes) - Duration::Minutes(2);
    chaos.injector().PlantSlowSoc(kSlowSoc, storm_at, storm_len, 0.08);
    chaos.injector().PlantZombie(kZombieSoc, storm_at, storm_len);
    chaos.injector().PlantLinkBrownout(kBrownoutSlot, storm_at, storm_len,
                                       0.15);
    chaos.injector().PlantFlakyHeartbeat(kFlakySoc, storm_at, storm_len, 0.5);
  }

  const double rate =
      0.5 * static_cast<double>(kGrayActiveSocs) * fleet.PerSocThroughput();
  OpenLoopSource source(&sim, rate, Duration::Minutes(kGrayMinutes),
                        [&fleet, harness] {
                          Ledger::Span span(harness->ledger, Layer::kWorkload);
                          ++harness->submits;
                          fleet.Submit(Priority::kCritical);
                        });
  source.Start();
  harness->EndSetup();
  if (harness->setup_only) {
    return run;
  }
  harness->Advance(&sim, Duration::Minutes(2 * kGrayMinutes));

  run.suspects = gray->suspects_total();
  run.quarantines = gray->quarantines_total();
  CheckFleetConservation(sim, fleet, result);
  Check(result, source.generated() == CounterValue(sim, "dl.serving.submitted"),
        "every generated request reaches the fleet");
  if (!plant) {
    return run;  // The control run only counts false positives.
  }

  sim.obs().slos.Advance(sim.Now());
  int64_t slo_fired = 0;
  int64_t slo_firing_at_end = 0;
  for (const auto& tracker : sim.obs().slos.trackers()) {
    slo_firing_at_end += tracker->firing() ? 1 : 0;
    for (const SloAlert& alert : tracker->alerts()) {
      slo_fired += alert.firing ? 1 : 0;
    }
  }
  harness->Flush(sim);

  const int64_t generated = source.generated();
  const double p99_ms =
      fleet.latencies().count() > 0 ? fleet.latencies().Percentile(99) : 0.0;
  auto add = [&](const char* key, double value) {
    result->bench.emplace_back(key, value);
  };
  add("p99_ms_detection_on", p99_ms);
  add("goodput_detection_on",
      generated > 0 ? static_cast<double>(fleet.completed()) /
                          static_cast<double>(generated)
                    : 0.0);
  add("failed_detection_on", static_cast<double>(fleet.failed()));
  add("suspects", static_cast<double>(run.suspects));
  add("quarantines", static_cast<double>(run.quarantines));
  add("reinstated", static_cast<double>(gray->reinstated_total()));
  add("escalated", static_cast<double>(gray->escalated_total()));
  add("monitor_down_events",
      static_cast<double>(chaos.monitor().down_events()));
  add("slo_fired_on", static_cast<double>(slo_fired));
  add("slo_firing_at_end_on", static_cast<double>(slo_firing_at_end));

  result->issued = generated;
  result->good = fleet.completed();
  SetLatencies(fleet.latencies(), fleet.latencies_of(Priority::kCritical),
               result);
  const uint64_t culprits =
      (uint64_t{1} << kZombieSoc) | (uint64_t{1} << kSlowSoc);
  Check(result, (run.quarantined_mask & culprits) == culprits,
        "the zombie and the straggler were not both quarantined");

  StateDigest digest;
  sim.DigestState(digest);
  cluster.DigestState(digest);
  fleet.DigestState(digest);
  gray->DigestState(digest);
  result->digest = digest.value();

  auto& counts = result->counts;
  AddRegistry(sim, &counts);
  counts["workload.completed"] = static_cast<double>(fleet.completed());
  counts["workload.shed"] = static_cast<double>(fleet.shed());
  counts["workload.expired"] = static_cast<double>(fleet.deadline_expired());
  return run;
}

RepResult RunGray(uint64_t seed, Harness* harness, bool control) {
  RepResult result;
  RunGrayStorm(/*plant=*/true, seed, harness, &result);
  if (control && !harness->setup_only) {
    // Fault-free control with detection on: anything quarantined here is a
    // false positive. Untimed, and outside the traced ledger.
    Harness untimed;
    RepResult control_result;
    const GrayRun clean =
        RunGrayStorm(/*plant=*/false, seed, &untimed, &control_result);
    result.bench.emplace_back("clean_quarantines",
                              static_cast<double>(clean.quarantines));
    result.bench.emplace_back("clean_suspects",
                              static_cast<double>(clean.suspects));
    result.counts["core.false_positives"] =
        static_cast<double>(clean.quarantines);
    Check(&result, clean.quarantines == 0,
          "the fault-free control quarantined a healthy SoC");
    for (const std::string& failure : control_result.failures) {
      result.failures.push_back("control: " + failure);
    }
  }
  return result;
}

}  // namespace

bool IsWorkload(std::string_view workload) {
  return workload == "rideout_day" || workload == "retry_storm" ||
         workload == "service_mix_storm" || workload == "gray_storm";
}

int ServingSocs(std::string_view workload) {
  if (workload == "rideout_day") {
    return kRideoutDay.socs;
  }
  if (workload == "retry_storm") {
    return kRetryStorm.socs;
  }
  return workload == "gray_storm" ? kGrayActiveSocs : kStormServingSocs;
}

RepResult RunWorkload(std::string_view workload, uint64_t seed,
                      Harness* harness, bool control) {
  SOC_CHECK(IsWorkload(workload)) << "unknown workload " << workload;
  RepResult result;
  if (workload == "rideout_day") {
    result = RunDay(kRideoutDay, seed, harness);
  } else if (workload == "retry_storm") {
    result = RunDay(kRetryStorm, seed, harness);
  } else if (workload == "service_mix_storm") {
    result = RunServiceMix(seed, harness);
  } else {
    result = RunGray(seed, harness, control);
  }
  result.seed = seed;
  result.setup_s = harness->setup_s;
  result.wall_s = harness->wall_s;
  return result;
}

}  // namespace perfbench
