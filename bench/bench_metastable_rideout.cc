// Metastable ride-out: the same simulated day, twice, from one seed.
//
// A million-user open-loop session tier (src/trace/session.h) drives the
// serving fleet through a 25x peak-to-trough diurnal day. On the evening
// peak a flash crowd lands (livestream event, 4x for a few minutes) and
// a correlated burst of SoC faults kills part of the fleet — the classic
// metastability trigger. The two runs differ only in the retry discipline
// and the server-side protections:
//
//   naive    fixed-delay unbounded client retries, a deep FIFO queue, no
//            deadline purge, no brownout ladder. Timeouts beget retries,
//            retries keep offered load above capacity, the server burns
//            its capacity on requests whose clients already walked away
//            (`wasted`), and goodput stays collapsed long after the
//            trigger clears — the vicious cycle sustains itself.
//   rideout  budgeted retries (token bucket over jittered exponential
//            backoff), a bounded queue with client-deadline purge, and
//            the cluster brownout ladder. Retry amplification is capped,
//            stale work is dropped before it wastes a SoC, and goodput
//            recovers to the pre-trigger level once the crowd decays.
//
// Arrival draws ride a cohort stream separate from behavior draws, so both
// runs see the bit-identical session-arrival sequence: one day, one seed,
// two outcomes. The report carries the goodput-vs-time series of both.
// The bench checks its headline claims itself and exits 1 when one fails;
// two of them are cost ceilings, on placement work and on arrival thinning
// work (cost.* in the report).
// The day itself is the RideoutDay builder (src/core/flagships.h); this
// file runs it, extracts the outcome and reports.
//
// Flags: --seed=S (default 42), --users=N (default 1000000),
//        --day-minutes=D (default 60, at least 2; the full 24 h day
//        compressed),
//        --post-minutes=P (default 30; the post-trigger assertion window),
//        --socs=N (default 40; serving fleet size — the fault burst, wall
//        cap, and offered load scale with it, so sanitizer smoke runs can
//        shrink the whole experiment proportionally),
//        --exact-latency=0|1 (default 1; pass 0 on very long days to keep
//        latency memory O(sketch) — the fleet then keeps no per-class
//        samples, so the critical p99 is left out of the report and the
//        table reads n/a),
//        --trace-out/--metrics-out/--slo-out/--digest-out (rideout run).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/base/check.h"
#include "src/base/digest.h"
#include "src/base/stats.h"
#include "src/base/table.h"
#include "src/core/flagships.h"
#include "src/obs/bench_report.h"
#include "src/obs/flags.h"

namespace soccluster {
namespace {

// Ceiling on the fleet placer's SoCs tested per placement. A scan tests
// all 60 SoCs of the chassis on every pick (146.4-146.7 per placement at
// the claims arguments, seeds 42/1/2). The placement index tests only open
// SoCs, and the fleet's view keeps its inactive SoCs out of the open set,
// so a successful pick tests its winner alone and a pick on a full fleet
// tests nothing: 1.000 at the claims arguments, at the defaults and in a
// single-sided naive run. The ceiling adds a 5% margin; testing each
// inactive SoC, as a filtered pick did, reads 75.84-76.18.
constexpr double kMaxSchedChecksPerPlacement = 1.05;

// Ceiling on full rate evaluations per thinning proposal in the session
// tier. Evaluating rate(t) on every proposal reads 1.0; the envelope
// squeeze decides all but 0.22-0.24% of proposals at the claims arguments
// (seeds 42/1/2) and at the defaults. The ceiling is about twice that.
constexpr double kMaxRateEvalsPerProposal = 0.005;

struct RideoutParams {
  // The day both runs share; RunDay sets `rideout` per run. Smaller fleets
  // (--socs) run the same experiment at proportionally lower event cost.
  RideoutDayParams day{.seed = 42,
                       .users = 1'000'000,
                       .day_minutes = 60,
                       .socs = 40,
                       .exact_latency = true};
  int post_minutes = 30;
  // "both" runs the A/B pair; "naive" or "rideout" runs one side (a full
  // uncompressed 2M-user day is wall-clock-minutes cheap in rideout mode,
  // while the naive side deliberately amplifies itself ~200x).
  std::string mode = "both";
};

struct RideoutOutcome {
  int64_t sessions = 0;
  int64_t issued = 0;
  int64_t submitted = 0;
  double amplification = 0.0;  // submitted / issued.
  int64_t good = 0;
  int64_t timeouts = 0;
  int64_t retries = 0;
  int64_t retries_denied = 0;
  int64_t give_ups = 0;
  int64_t wasted = 0;
  double pre_goodput = 0.0;   // The 10 windows before the flash.
  double post_goodput = 0.0;  // [clear, clear + post_minutes).
  // Consecutive post-clear minutes with goodput under half the pre-trigger
  // level (the ISSUE's "stays collapsed" measure).
  double collapsed_minutes = 0.0;
  bool recovered = false;  // Goodput back to >= 95% of pre, and held.
  double recovery_minutes = -1.0;  // Clear -> first recovered window.
  // Unset without exact samples: the registry sketch mixes every class.
  std::optional<double> critical_p99_ms;
  int peak_brownout = 0;
  int64_t slo_fires = 0;
  int64_t slo_clears = 0;
  // The fleet placer's work: SoCs its picks tested, and its placements.
  int64_t sched_checks = 0;
  int64_t placements = 0;
  // The session tier's thinning work: proposals, and how many of them
  // evaluated the full arrival rate.
  int64_t rate_proposals = 0;
  int64_t rate_evals = 0;
  std::vector<SessionWindow> series;
  Duration window;
};

RideoutOutcome RunDay(bool rideout, const RideoutParams& params,
                      const ObsFlags* obs_flags) {
  Simulator sim(params.day.seed);
  if (obs_flags != nullptr) {
    ApplyObsFlags(*obs_flags, &sim.obs());
  }
  RideoutDayParams day_params = params.day;
  day_params.rideout = rideout;
  RideoutDay day(&sim, day_params);
  const SessionTier& tier = *day.tier;
  const RideoutDay::Trigger& trigger = day.trigger;
  SOC_CHECK(sim.RunFor(day.horizon() + Duration::Minutes(5)).ok());

  RideoutOutcome outcome;
  outcome.sessions = tier.sessions_started();
  outcome.issued = tier.issued();
  outcome.submitted = tier.submitted();
  outcome.amplification =
      outcome.issued > 0 ? static_cast<double>(outcome.submitted) /
                               static_cast<double>(outcome.issued)
                         : 0.0;
  outcome.good = tier.good();
  outcome.timeouts = tier.timeouts();
  outcome.retries = tier.retries();
  outcome.retries_denied = tier.retries_denied();
  outcome.give_ups = tier.give_ups();
  outcome.wasted = tier.wasted();
  outcome.series = tier.series();
  outcome.window = tier.config().counter_window;
  outcome.peak_brownout = day.peak_brownout;

  const int64_t window_ns = outcome.window.nanos();
  const size_t flash_idx =
      static_cast<size_t>(trigger.flash_start.nanos() / window_ns);
  const size_t clear_idx = static_cast<size_t>(
      (trigger.clear.nanos() + window_ns - 1) / window_ns);
  const size_t post_windows = static_cast<size_t>(
      Duration::Minutes(params.post_minutes).nanos() / window_ns);
  const size_t post_end = clear_idx + post_windows;
  outcome.pre_goodput =
      tier.GoodputOver(flash_idx >= 10 ? flash_idx - 10 : 0, flash_idx);
  outcome.post_goodput = tier.GoodputOver(clear_idx, post_end);

  // Collapse length: consecutive windows under half the pre-trigger level.
  const double collapse_bar = 0.5 * outcome.pre_goodput;
  const double recover_bar = 0.95 * outcome.pre_goodput;
  size_t collapsed = 0;
  for (size_t w = clear_idx; w < post_end; ++w) {
    if (tier.GoodputOver(w, w + 1) >= collapse_bar) {
      break;
    }
    ++collapsed;
  }
  outcome.collapsed_minutes =
      static_cast<double>(collapsed) * outcome.window.ToSeconds() / 60.0;
  // Recovery: the first post-clear window where goodput holds >= 95% of
  // the pre-trigger level over three consecutive windows.
  for (size_t w = clear_idx; w + 3 <= post_end; ++w) {
    if (tier.GoodputOver(w, w + 3) >= recover_bar) {
      outcome.recovery_minutes =
          static_cast<double>(w - clear_idx) * outcome.window.ToSeconds() /
          60.0;
      break;
    }
  }
  // Recovered means recovery happened and held to the end of the window.
  outcome.recovered =
      outcome.recovery_minutes >= 0.0 &&
      tier.GoodputOver(post_end >= 3 ? post_end - 3 : 0, post_end) >=
          recover_bar;

  if (params.day.exact_latency) {
    const SampleStats& critical =
        day.fleet->latencies_of(Priority::kCritical);
    outcome.critical_p99_ms =
        critical.count() > 0 ? critical.Percentile(99) : 0.0;
  }

  const MetricLabels spread{{"policy", PlacementPolicyName(
                                           PlacementPolicy::kSpread)}};
  outcome.sched_checks =
      sim.metrics().GetCounter("sched.candidates_checked", spread)->value();
  outcome.placements =
      sim.metrics().GetCounter("sched.placements", spread)->value();
  outcome.rate_proposals =
      sim.metrics().GetCounter("trace.rate_proposals")->value();
  outcome.rate_evals = sim.metrics().GetCounter("trace.rate_evals")->value();

  const SloAlertTally slo = sim.obs().slos.TallyAlerts(sim.Now());
  outcome.slo_fires = slo.fired;
  outcome.slo_clears = slo.cleared;

  if (obs_flags != nullptr) {
    SOC_CHECK(FlushObsFlags(*obs_flags, sim.obs(), sim.Now()).ok());
    StateDigest digest;
    sim.DigestState(digest);
    day.cluster->DigestState(digest);
    day.fleet->DigestState(digest);
    tier.DigestState(digest);
    day.manager->governor().DigestState(digest);
    SOC_CHECK(FlushDigestFlag(*obs_flags, digest.value()).ok());
  }
  return outcome;
}

std::string Tag(const char* mode, const char* metric) {
  return std::string(mode) + "." + metric;
}

void Report(BenchReport& report, const char* mode,
            const RideoutOutcome& o) {
  report.Add(Tag(mode, "sessions"), static_cast<double>(o.sessions), "count");
  report.Add(Tag(mode, "issued"), static_cast<double>(o.issued), "count");
  report.Add(Tag(mode, "submitted"), static_cast<double>(o.submitted),
             "count");
  report.Add(Tag(mode, "amplification"), o.amplification, "x");
  report.Add(Tag(mode, "good"), static_cast<double>(o.good), "count");
  report.Add(Tag(mode, "timeouts"), static_cast<double>(o.timeouts), "count");
  report.Add(Tag(mode, "retries"), static_cast<double>(o.retries), "count");
  report.Add(Tag(mode, "retries_denied"),
             static_cast<double>(o.retries_denied), "count");
  report.Add(Tag(mode, "give_ups"), static_cast<double>(o.give_ups), "count");
  report.Add(Tag(mode, "wasted"), static_cast<double>(o.wasted), "count");
  report.Add(Tag(mode, "pre_goodput"), o.pre_goodput, "fraction");
  report.Add(Tag(mode, "post_goodput"), o.post_goodput, "fraction");
  report.Add(Tag(mode, "collapsed_minutes"), o.collapsed_minutes, "min");
  report.Add(Tag(mode, "recovered"), o.recovered ? 1.0 : 0.0, "bool");
  report.Add(Tag(mode, "recovery_minutes"), o.recovery_minutes, "min");
  if (o.critical_p99_ms.has_value()) {
    report.Add(Tag(mode, "critical_p99_ms"), *o.critical_p99_ms, "ms");
  }
  report.Add(Tag(mode, "peak_brownout_level"),
             static_cast<double>(o.peak_brownout), "level");
  report.Add(Tag(mode, "slo_fires"), static_cast<double>(o.slo_fires),
             "count");
  report.Add(Tag(mode, "slo_clears"), static_cast<double>(o.slo_clears),
             "count");
}

int Run(const RideoutParams& params, const ObsFlags& obs_flags) {
  BenchReport report("metastable_rideout");
  report.SetParam("seed", static_cast<int64_t>(params.day.seed));
  report.SetParam("users", params.day.users);
  report.SetParam("day_minutes", static_cast<int64_t>(params.day.day_minutes));
  report.SetParam("post_minutes", static_cast<int64_t>(params.post_minutes));
  report.SetParam("serving_socs", static_cast<int64_t>(params.day.socs));
  report.SetParam("client_timeout_ms", RideoutDay::kClientTimeout.ToMillis());
  report.SetParam("client_deadline_ms",
                  RideoutDay::kClientDeadline.ToMillis());

  report.SetParam("mode", params.mode);

  std::printf("=== Metastable ride-out: one day, one seed, two retry "
              "disciplines (%lld users, %d-minute day, mode %s) ===\n\n",
              static_cast<long long>(params.day.users), params.day.day_minutes,
              params.mode.c_str());
  const bool run_naive = params.mode != "rideout";
  const bool run_rideout = params.mode != "naive";
  RideoutOutcome naive;
  RideoutOutcome rideout;
  if (run_naive) {
    naive = RunDay(/*rideout=*/false, params,
                   run_rideout ? nullptr : &obs_flags);
  }
  if (run_rideout) {
    rideout = RunDay(/*rideout=*/true, params, &obs_flags);
  }
  if (run_naive && run_rideout) {
    // The arrival stream is independent of the retry discipline: both runs
    // saw the identical simulated day.
    SOC_CHECK(naive.sessions == rideout.sessions)
        << "arrival sequences diverged between modes: " << naive.sessions
        << " vs " << rideout.sessions;
  }

  TextTable table({"mode", "sessions", "amplif", "pre good", "post good",
                   "collapsed min", "recovered", "wasted", "crit p99 ms"});
  const RideoutOutcome* outcomes[] = {&naive, &rideout};
  const bool enabled[] = {run_naive, run_rideout};
  const char* names[] = {"naive", "rideout"};
  for (int i = 0; i < 2; ++i) {
    if (!enabled[i]) {
      continue;
    }
    const RideoutOutcome& o = *outcomes[i];
    table.AddRow({names[i], std::to_string(o.sessions),
                  FormatDouble(o.amplification, 2),
                  FormatDouble(o.pre_goodput, 3),
                  FormatDouble(o.post_goodput, 3),
                  FormatDouble(o.collapsed_minutes, 1),
                  o.recovered ? "yes" : "NO", std::to_string(o.wasted),
                  o.critical_p99_ms.has_value()
                      ? FormatDouble(*o.critical_p99_ms, 0)
                      : "n/a"});
    Report(report, names[i], o);
  }
  std::printf("%s\n", table.Render().c_str());

  // Placement cost, counted rather than timed, so it repeats exactly per
  // seed: SoCs tested per placement over every run of this invocation.
  const int64_t checks = naive.sched_checks + rideout.sched_checks;
  const int64_t placements = naive.placements + rideout.placements;
  const double checks_per_placement =
      placements > 0 ? static_cast<double>(checks) /
                           static_cast<double>(placements)
                     : 0.0;
  report.Add("cost.sched_checks_per_placement", checks_per_placement,
             "count");
  const int64_t proposals = naive.rate_proposals + rideout.rate_proposals;
  const double evals_per_proposal =
      proposals > 0
          ? static_cast<double>(naive.rate_evals + rideout.rate_evals) /
                static_cast<double>(proposals)
          : 0.0;
  report.Add("cost.rate_evals_per_proposal", evals_per_proposal, "count");

  // The metastability claim: naive retries push the cluster into a state
  // that outlives its trigger, the budgeted+brownout config rides the same
  // day out, and the burn-rate SLOs fire in the storm and clear after it
  // (a run where none fires proves the storm too mild to mean anything).
  if (run_naive) {
    report.Claim(!naive.recovered,
                 "naive run stays collapsed after the trigger clears");
  }
  if (run_rideout) {
    report.Claim(rideout.recovered, "rideout run recovers");
    report.Claim(rideout.slo_fires >= 1,
                 "an SLO fires during the flash crowd (%lld)",
                 static_cast<long long>(rideout.slo_fires));
    report.Claim(rideout.slo_clears >= 1,
                 "an SLO clears after recovery (%lld)",
                 static_cast<long long>(rideout.slo_clears));
  }
  if (!run_naive || !run_rideout) {
    // Single-sided run: no A/B claims, timeline or takeaway.
    return report.ExitCode();
  }
  report.Claim(checks_per_placement <= kMaxSchedChecksPerPlacement,
               "SoCs tested per placement (%.3f) <= %.2f",
               checks_per_placement, kMaxSchedChecksPerPlacement);
  report.Claim(evals_per_proposal <= kMaxRateEvalsPerProposal,
               "rate evaluations per thinning proposal (%.5f) <= %.3f",
               evals_per_proposal, kMaxRateEvalsPerProposal);
  report.Claim(naive.post_goodput < rideout.post_goodput,
               "naive post-trigger goodput (%.3f) < rideout (%.3f)",
               naive.post_goodput, rideout.post_goodput);
  report.Claim(naive.amplification > 2.0 * rideout.amplification,
               "naive amplification (%.2fx) > 2 x rideout (%.2fx)",
               naive.amplification, rideout.amplification);

  // Goodput-vs-time, both runs side by side, from the flash onset through
  // the post-trigger window.
  const RideoutDay::Trigger trigger =
      RideoutDay::MakeTrigger(Duration::Minutes(params.day.day_minutes));
  const int64_t window_ns = naive.window.nanos();
  const size_t begin =
      static_cast<size_t>(trigger.flash_start.nanos() / window_ns) - 4;
  const size_t end = std::max(naive.series.size(), rideout.series.size());
  TextTable timeline({"t (min)", "naive goodput", "rideout goodput",
                      "naive wasted/win", "rideout denied/win"});
  const size_t stride = 3;
  for (size_t w = begin; w < end; w += stride) {
    auto over = [&](const RideoutOutcome& o) {
      int64_t good = 0;
      int64_t issued = 0;
      int64_t other = 0;
      for (size_t i = w; i < std::min(w + stride, o.series.size()); ++i) {
        good += o.series[i].good;
        issued += o.series[i].issued;
        other += &o == &naive ? o.series[i].wasted
                              : o.series[i].retries_denied;
      }
      return std::pair<double, int64_t>(
          issued > 0 ? static_cast<double>(good) / static_cast<double>(issued)
                     : 0.0,
          other);
    };
    const auto [naive_good, naive_wasted] = over(naive);
    const auto [ride_good, ride_denied] = over(rideout);
    timeline.AddRow(
        {FormatDouble(static_cast<double>(w) * naive.window.ToSeconds() / 60.0,
                      1),
         FormatDouble(naive_good, 3), FormatDouble(ride_good, 3),
         std::to_string(naive_wasted), std::to_string(ride_denied)});
  }
  std::printf("%s\n", timeline.Render().c_str());

  std::printf(
      "Takeaway: the same day collapses or rides out depending only on the "
      "retry discipline. Naive fixed-delay retries amplified %.1fx and held "
      "goodput at %.2f for %.1f minutes after the trigger cleared (server "
      "burned %lld completions on departed clients); budgeted retries plus "
      "deadline purge and the brownout ladder amplified %.2fx and recovered "
      "to %.0f%% of the pre-trigger level%s.\n",
      naive.amplification, naive.post_goodput, naive.collapsed_minutes,
      static_cast<long long>(naive.wasted), rideout.amplification,
      100.0 * rideout.post_goodput /
          (rideout.pre_goodput > 0 ? rideout.pre_goodput : 1.0),
      rideout.recovery_minutes >= 0.0 ? " within the assertion window" : "");
  return report.ExitCode();
}

}  // namespace
}  // namespace soccluster

int main(int argc, char** argv) {
  soccluster::RideoutParams params;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      params.day.seed = static_cast<uint64_t>(std::atoll(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--users=", 8) == 0) {
      params.day.users = std::atoll(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--day-minutes=", 14) == 0) {
      params.day.day_minutes = std::atoi(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--post-minutes=", 15) == 0) {
      params.post_minutes = std::atoi(argv[i] + 15);
    } else if (std::strncmp(argv[i], "--socs=", 7) == 0) {
      params.day.socs = std::atoi(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--exact-latency=", 16) == 0) {
      params.day.exact_latency = std::atoi(argv[i] + 16) != 0;
    } else if (std::strncmp(argv[i], "--mode=", 7) == 0) {
      params.mode = argv[i] + 7;
    }
  }
  if (params.mode != "both" && params.mode != "naive" &&
      params.mode != "rideout") {
    std::fprintf(stderr, "unknown --mode=%s (both|naive|rideout)\n",
                 params.mode.c_str());
    return 1;
  }
  // The post window is at most half the day and at least one minute.
  if (params.day.day_minutes < 2) {
    std::fprintf(stderr,
                 "--day-minutes=%d is too short: the day must be at least 2 "
                 "minutes to fit a 1-minute post-trigger window\n",
                 params.day.day_minutes);
    return 2;
  }
  // One chassis: the fleet (and the scaled fault-victim indices) must fit.
  if (params.day.socs < 8) {
    params.day.socs = 8;
  }
  if (params.day.socs > soccluster::DefaultChassisSpec().num_socs) {
    params.day.socs = soccluster::DefaultChassisSpec().num_socs;
  }
  if (params.post_minutes < 1) {
    params.post_minutes = 1;
  }
  // The post window must fit inside the generated 1.5-day horizon.
  const int max_post = params.day.day_minutes / 2;
  if (params.post_minutes > max_post) {
    params.post_minutes = max_post;
  }
  const soccluster::ObsFlags obs_flags = soccluster::ParseObsFlags(argc, argv);
  return soccluster::Run(params, obs_flags);
}
