#include "src/sim/determinism.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/base/check.h"
#include "src/obs/json.h"

namespace soccluster {

namespace {

constexpr uint64_t kSimSeed = 2024;
// Permutation p runs with tie-break seed kFirstPerturbSeed + p.
constexpr uint64_t kFirstPerturbSeed = 1;
// Digest checkpoints per run (evenly spaced over the audit horizon).
constexpr int kCheckpoints = 32;
// Sub-checkpoints used to refine a divergent window before replaying it
// with event recording.
constexpr int kRefineSteps = 16;
// Cap on recorded events in the replayed window.
constexpr size_t kMaxRecordedEvents = 1 << 20;

void WriteJsonString(std::ostream& out, const std::string& s) {
  out << '"' << JsonEscape(s) << '"';
}

std::string DisplayLabel(const std::string& label) {
  return label.empty() ? "(unlabeled)" : label;
}

}  // namespace

void WriteDivergenceReportJson(const DivergenceReport& report,
                               std::ostream& out) {
  out << "{\n  \"scenario\": ";
  WriteJsonString(out, report.scenario);
  out << ",\n  \"diverged\": " << (report.diverged ? "true" : "false")
      << ",\n  \"permutations_run\": " << report.permutations_run
      << ",\n  \"baseline_digest\": \"" << report.baseline_digest << "\"";
  if (report.diverged) {
    out << ",\n  \"divergent_seed\": " << report.divergent_seed
        << ",\n  \"fifo_digest\": \"" << report.fifo_digest << "\""
        << ",\n  \"perturbed_digest\": \"" << report.perturbed_digest << "\""
        << ",\n  \"window_begin_ns\": " << report.window_begin.nanos()
        << ",\n  \"window_end_ns\": " << report.window_end.nanos()
        << ",\n  \"suspect_labels\": [";
    for (size_t i = 0; i < report.suspect_labels.size(); ++i) {
      if (i > 0) {
        out << ", ";
      }
      WriteJsonString(out, report.suspect_labels[i]);
    }
    out << "],\n  \"detail\": ";
    WriteJsonString(out, report.detail);
  }
  out << "\n}\n";
}

DeterminismAuditor::DeterminismAuditor(std::string scenario_name,
                                       DetScenario scenario, int permutations)
    : name_(std::move(scenario_name)),
      scenario_(std::move(scenario)),
      permutations_(permutations) {
  SOC_CHECK(scenario_ != nullptr);
  SOC_CHECK_GE(permutations_, 1);
}

std::vector<SimTime> DeterminismAuditor::Checkpoints(SimTime begin,
                                                     SimTime end, int count) {
  SOC_CHECK_GT(end.nanos(), begin.nanos());
  std::vector<SimTime> times;
  times.reserve(static_cast<size_t>(count));
  const int64_t span = end.nanos() - begin.nanos();
  for (int k = 1; k <= count; ++k) {
    const int64_t offset = span * k / count;
    const SimTime t = SimTime::FromNanos(begin.nanos() + offset);
    if (times.empty() || times.back() < t) {
      times.push_back(t);
    }
  }
  SOC_CHECK(times.back() == end);
  return times;
}

DeterminismAuditor::RunResult DeterminismAuditor::RunOnce(
    bool perturb, uint64_t perturb_seed,
    const std::vector<SimTime>& checkpoints) {
  Simulator sim(kSimSeed);
  if (perturb) {
    sim.EnableTieBreakPerturbation(perturb_seed);
  }
  DetScenarioRun run = scenario_(sim);
  SOC_CHECK(run.digest != nullptr);
  audit_begin_ = sim.Now();
  audit_end_ = run.end;
  SOC_CHECK_GT(audit_end_.nanos(), audit_begin_.nanos())
      << "scenario horizon must extend past its build phase";
  RunResult result;
  result.digests.reserve(checkpoints.size());
  for (const SimTime t : checkpoints) {
    SOC_CHECK(sim.RunUntil(t).ok());
    // The scenario digest is folded with the engine digest so a run that
    // only diverges in pending-event or RNG state still registers.
    StateDigest digest;
    sim.DigestState(digest);
    digest.Mix(run.digest());
    result.digests.push_back(digest.value());
  }
  return result;
}

std::vector<Simulator::FiredEvent> DeterminismAuditor::RunRecorded(
    bool perturb, uint64_t seed, SimTime begin, SimTime end) {
  Simulator sim(kSimSeed);
  if (perturb) {
    sim.EnableTieBreakPerturbation(seed);
  }
  DetScenarioRun run = scenario_(sim);
  sim.RecordFiredEvents(begin, end, kMaxRecordedEvents);
  SOC_CHECK(sim.RunUntil(end).ok());
  return sim.fired_events();
}

DivergenceReport DeterminismAuditor::Run() {
  DivergenceReport report;
  report.scenario = name_;

  // Discover the audit window (build-phase end, horizon) with a probe run
  // that digests only at the horizon, then lay out the real checkpoints.
  {
    Simulator sim(kSimSeed);
    DetScenarioRun run = scenario_(sim);
    SOC_CHECK(run.digest != nullptr);
    audit_begin_ = sim.Now();
    audit_end_ = run.end;
  }
  const std::vector<SimTime> checkpoints =
      Checkpoints(audit_begin_, audit_end_, kCheckpoints);

  const RunResult baseline = RunOnce(false, 0, checkpoints);
  report.baseline_digest = baseline.digests.back();

  for (int p = 0; p < permutations_; ++p) {
    const uint64_t seed = kFirstPerturbSeed + static_cast<uint64_t>(p);
    const RunResult permuted = RunOnce(true, seed, checkpoints);
    ++report.permutations_run;
    size_t mismatch = checkpoints.size();
    for (size_t i = 0; i < checkpoints.size(); ++i) {
      if (permuted.digests[i] != baseline.digests[i]) {
        mismatch = i;
        break;
      }
    }
    if (mismatch == checkpoints.size()) {
      continue;
    }

    // Divergence: refine the window (last agreeing checkpoint, first
    // divergent one] with finer sub-checkpoints, re-running both modes.
    report.diverged = true;
    report.divergent_seed = seed;
    SimTime lo = mismatch == 0 ? audit_begin_ : checkpoints[mismatch - 1];
    SimTime hi = checkpoints[mismatch];
    if (hi.nanos() - lo.nanos() > 1) {
      const std::vector<SimTime> fine = Checkpoints(lo, hi, kRefineSteps);
      const RunResult fifo_fine = RunOnce(false, 0, fine);
      const RunResult perm_fine = RunOnce(true, seed, fine);
      for (size_t i = 0; i < fine.size(); ++i) {
        if (perm_fine.digests[i] != fifo_fine.digests[i]) {
          hi = fine[i];
          report.fifo_digest = fifo_fine.digests[i];
          report.perturbed_digest = perm_fine.digests[i];
          break;
        }
        lo = fine[i];
      }
    }
    if (report.fifo_digest == report.perturbed_digest) {
      report.fifo_digest = baseline.digests[mismatch];
      report.perturbed_digest = permuted.digests[mismatch];
    }
    report.window_begin = lo;
    report.window_end = hi;

    // Replay both runs recording every event fired inside the window, and
    // name the labels at the first point the sequences disagree.
    const std::vector<Simulator::FiredEvent> fifo_events =
        RunRecorded(false, 0, lo, hi);
    const std::vector<Simulator::FiredEvent> perm_events =
        RunRecorded(true, seed, lo, hi);
    const size_t common = std::min(fifo_events.size(), perm_events.size());
    size_t first = common;
    for (size_t i = 0; i < common; ++i) {
      if (fifo_events[i].label != perm_events[i].label ||
          fifo_events[i].time != perm_events[i].time) {
        first = i;
        break;
      }
    }
    std::ostringstream detail;
    detail << "state digests diverged under tie-break permutation seed "
           << seed << " inside (" << lo.nanos() << " ns, " << hi.nanos()
           << " ns]";
    constexpr size_t kContext = 16;
    constexpr size_t kMaxSuspects = 8;
    for (size_t i = first;
         i < std::max(fifo_events.size(), perm_events.size()) &&
         i < first + kContext &&
         report.suspect_labels.size() < kMaxSuspects;
         ++i) {
      for (const auto* events : {&fifo_events, &perm_events}) {
        if (i >= events->size()) {
          continue;
        }
        const std::string label = DisplayLabel((*events)[i].label);
        if (std::find(report.suspect_labels.begin(),
                      report.suspect_labels.end(),
                      label) == report.suspect_labels.end() &&
            report.suspect_labels.size() < kMaxSuspects) {
          report.suspect_labels.push_back(label);
        }
      }
    }
    if (first < common) {
      detail << "; first order flip at t=" << fifo_events[first].time.nanos()
             << " ns: FIFO fired '" << DisplayLabel(fifo_events[first].label)
             << "' where the permuted run fired '"
             << DisplayLabel(perm_events[first].label) << "'";
    } else if (fifo_events.size() != perm_events.size()) {
      detail << "; runs fired a different number of events in the window ("
             << fifo_events.size() << " vs " << perm_events.size() << ")";
    } else {
      detail << "; identical event labels in the window — the divergence is "
                "in callback effects (check rng draw order and unordered "
                "iteration inside the labeled callbacks)";
    }
    report.detail = detail.str();
    return report;
  }
  return report;
}

}  // namespace soccluster
