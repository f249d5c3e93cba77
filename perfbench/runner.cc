// Benchmark runner: runs one workload for a host-time budget and writes
// raw measurements as JSON. perfbench/run.py builds this binary, calls it,
// and turns the JSON into the benchmark's metrics.
//
//   perfbench_runner --workload=W --seed=N --seconds=S --trace=0|1
//                    --out=FILE [--sim-reps=K] [--scratch=DIR]
//
// --trace=0 repeats the workload for S host seconds (it stops before a
//   repetition that would overrun) and at least K repetitions. Repetition i simulates seed N + (i mod K) *
//   1000003, so the first K are distinct inputs and later ones repeat them
//   (a repeat must reproduce its state digest bit for bit).
// --trace=1 runs seed N once untraced and once under the ledger (digests
//   must match), once with Perfetto trace and metrics export on (files go
//   to --scratch and are deleted), and the SLO and placement kernels.
//
// Exit status is 0 when every check passed, 1 when a check failed (the
// JSON still lists the failures), 2 on a usage error.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/ledger.h"
#include "perfbench/scenarios.h"
#include "src/base/check.h"
#include "src/cluster/cluster.h"
#include "src/obs/json.h"
#include "src/obs/slo.h"
#include "src/sched/capacity.h"
#include "src/sched/placer.h"

namespace perfbench {
namespace {

using namespace soccluster;  // NOLINT

constexpr uint64_t kSeedStride = 1000003;
// Set-up alone is short, so it gets its own repetitions: after each
// workload repetition, set up (only) for `burst_ns` of host time, up to
// `max_samples` in all. Spreading them over the run samples every quiet
// and busy phase of the host.
constexpr int64_t kSetupBurstNs = 150'000'000;
constexpr size_t kSetupMaxSamples = 3000;
// Completion-stream entries kept for the SLO kernel (8 bytes each).
constexpr size_t kOutcomeCap = size_t{4} << 20;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string out;
  int sim_reps = 1;
  std::string scratch = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool seed_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const size_t eq = arg.find('=');
    if (eq == std::string_view::npos) {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return false;
    }
    const std::string_view flag = arg.substr(0, eq);
    const std::string value(arg.substr(eq + 1));
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
      seed_set = true;
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--out") {
      args->out = value;
    } else if (flag == "--sim-reps") {
      args->sim_reps = std::max(1, std::atoi(value.c_str()));
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return false;
    }
  }
  return seed_set && IsWorkload(args->workload) && !args->out.empty() &&
         (args->trace == 0 || args->trace == 1);
}

// Peak resident set of this process (VmHWM), in kB.
int64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atoll(line.c_str() + 6);
    }
  }
  return 0;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// Host ns per SloTracker::Record, replaying the run's own completion
// stream through a standalone tracker. Median of five passes.
double SloRecordNs(const std::vector<int64_t>& stream) {
  if (stream.empty()) {
    return 0.0;
  }
  SloSpec spec;
  spec.name = "perfbench.replay";
  std::vector<double> per_record;
  for (int pass = 0; pass < 5; ++pass) {
    SloTracker tracker(spec);
    const int64_t start = HostNowNs();
    for (const int64_t entry : stream) {
      tracker.Record(SimTime::FromNanos(entry / 2), (entry & 1) != 0);
    }
    per_record.push_back(static_cast<double>(HostNowNs() - start) /
                         static_cast<double>(stream.size()));
  }
  return Median(per_record);
}

// Host ns per Placer::Pick with the serving fleet's dispatch demand (one
// engine slot, kSpread by slot load, the active-set filter) on a booted
// chassis with every other active SoC busy. Median of five passes.
double PickNs(int active_socs) {
  Simulator sim(1);
  SocCluster cluster(&sim, DefaultChassisSpec(), Snapdragon865Spec());
  cluster.PowerOnAll(nullptr);
  SOC_CHECK(sim.RunFor(Duration::Seconds(26)).ok());
  SocCapacityView::Options view_options;
  view_options.slot_capacity = 1;
  SocCapacityView view(&cluster, view_options);
  Placer::Options options;
  options.policy = PlacementPolicy::kSpread;
  options.load.cpu_weight = 0.0;
  options.load.slot_weight = 1.0;
  options.count_rejections = false;
  Placer placer(&sim, &view, options);
  PlacementDemand slot;
  slot.slots = 1;
  for (int i = 0; i < active_socs; i += 2) {
    view.Reserve(i, slot);
  }
  constexpr int kPicks = 200000;
  std::vector<double> per_pick;
  int64_t checksum = 0;
  for (int pass = 0; pass < 5; ++pass) {
    const int64_t start = HostNowNs();
    for (int n = 0; n < kPicks; ++n) {
      checksum += placer.Pick(
          slot, [active_socs](int i) { return i < active_socs; });
    }
    per_pick.push_back(static_cast<double>(HostNowNs() - start) / kPicks);
  }
  SOC_CHECK_GT(checksum, 0);
  return Median(per_pick);
}

void MeasureSetup(const Args& args, std::vector<double>* samples) {
  const int64_t start = HostNowNs();
  while (samples->size() < kSetupMaxSamples &&
         HostNowNs() - start < kSetupBurstNs) {
    Harness harness;
    harness.setup_only = true;
    RunWorkload(args.workload,
                args.seed + samples->size() * kSeedStride, &harness,
                /*control=*/false);
    samples->push_back(harness.setup_s);
  }
}

// --- JSON output -----------------------------------------------------------

std::string Hex(uint64_t v) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, v);
  return buffer;
}

void WriteRep(JsonWriter& json, const RepResult& rep) {
  json.BeginObject();
  json.KeyValue("seed", rep.seed);
  json.KeyValue("setup_s", rep.setup_s);
  json.KeyValue("wall_s", rep.wall_s);
  json.KeyValue("issued", rep.issued);
  json.KeyValue("good", rep.good);
  json.KeyValue("mean_ms", rep.mean_ms);
  json.KeyValue("p50_ms", rep.p50_ms);
  json.KeyValue("p99_ms", rep.p99_ms);
  json.KeyValue("latency_samples", rep.latency_samples);
  json.KeyValue("crit_p99_ms", rep.crit_p99_ms);
  json.KeyValue("crit_samples", rep.crit_samples);
  json.KeyValue("digest", std::string_view(Hex(rep.digest)));
  json.Key("failures");
  json.BeginArray();
  for (const std::string& failure : rep.failures) {
    json.Value(std::string_view(failure));
  }
  json.EndArray();
  json.Key("bench");
  json.BeginObject();
  for (const auto& [key, value] : rep.bench) {
    json.KeyValue(key, value);
  }
  json.EndObject();
  json.Key("counts");
  json.BeginObject();
  for (const auto& [key, value] : rep.counts) {
    json.KeyValue(key, value);
  }
  json.EndObject();
  json.EndObject();
}

void WriteLedger(JsonWriter& json, const Ledger& ledger, int64_t submits) {
  json.BeginObject();
  json.KeyValue("events", ledger.events());
  json.KeyValue("allocations", ledger.allocations());
  json.KeyValue("submits", submits);
  json.KeyValue("outcomes_replayed",
                static_cast<int64_t>(ledger.outcomes().size()));
  json.Key("self_s");
  json.BeginObject();
  for (size_t i = 0; i < kNumLayers; ++i) {
    json.KeyValue(LayerName(static_cast<Layer>(i)),
                  ledger.self_s(static_cast<Layer>(i)));
  }
  json.EndObject();
  json.Key("span_s");
  json.BeginObject();
  for (size_t i = 0; i < kNumLayers; ++i) {
    json.KeyValue(LayerName(static_cast<Layer>(i)),
                  ledger.span_s(static_cast<Layer>(i)));
  }
  json.EndObject();
  json.Key("labels");
  json.BeginObject();
  for (const auto& [label, stat] : ledger.labels()) {
    json.Key(label.empty() ? "(unlabeled)" : label);
    json.BeginArray();
    json.Value(stat.events);
    json.Value(static_cast<double>(stat.self_ns) * 1e-9);
    json.EndArray();
  }
  json.EndObject();
  json.EndObject();
}

int Run(const Args& args) {
  std::ofstream out(args.out);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s\n", args.out.c_str());
    return 2;
  }
  JsonWriter json(&out);
  json.BeginObject();
  json.KeyValue("workload", std::string_view(args.workload));
  json.KeyValue("seed", args.seed);
  json.KeyValue("trace", args.trace);
  bool correct = true;
  json.Key("reps");
  json.BeginArray();
  if (args.trace == 0) {
    std::vector<uint64_t> digests;
    std::vector<double> setup_samples;
    const int64_t start = HostNowNs();
    for (int i = 0;; ++i) {
      const int input = i % args.sim_reps;
      const int64_t rep_start = HostNowNs();
      Harness harness;
      RepResult rep =
          RunWorkload(args.workload, args.seed + input * kSeedStride,
                      &harness, /*control=*/i == 0);
      if (i < args.sim_reps) {
        digests.push_back(rep.digest);
      } else if (rep.digest != digests[input]) {
        rep.failures.push_back("same seed, different state digest");
      }
      correct = correct && rep.failures.empty();
      WriteRep(json, rep);
      MeasureSetup(args, &setup_samples);
      // Stop once another repetition like this one would overrun.
      const int64_t now = HostNowNs();
      const double elapsed = static_cast<double>(now - start) * 1e-9;
      const double rep_s = static_cast<double>(now - rep_start) * 1e-9;
      if (i + 1 >= args.sim_reps && elapsed + rep_s > args.seconds) {
        break;
      }
    }
    json.EndArray();
    json.Key("setup_s");
    json.BeginArray();
    for (const double sample : setup_samples) {
      json.Value(sample);
    }
    json.EndArray();
  } else {
    Harness untraced;
    RepResult plain =
        RunWorkload(args.workload, args.seed, &untraced, /*control=*/true);
    WriteRep(json, plain);
    json.EndArray();

    Ledger ledger(kOutcomeCap);
    Harness traced;
    traced.ledger = &ledger;
    RepResult rep =
        RunWorkload(args.workload, args.seed, &traced, /*control=*/false);
    if (rep.digest != plain.digest) {
      rep.failures.push_back("traced state digest differs from untraced");
    }
    json.Key("traced");
    WriteRep(json, rep);
    json.Key("ledger");
    WriteLedger(json, ledger, traced.timed_submits);
    json.KeyValue("slo_record_ns", SloRecordNs(ledger.outcomes()));
    json.KeyValue("pick_ns", PickNs(ServingSocs(args.workload)));

    ObsFlags flags;
    flags.trace_out = args.scratch + "/perfbench_trace.json";
    flags.metrics_out = args.scratch + "/perfbench_metrics.jsonl";
    Harness exported;
    exported.export_flags = &flags;
    const RepResult with_export =
        RunWorkload(args.workload, args.seed, &exported, /*control=*/false);
    std::remove(flags.trace_out.c_str());
    std::remove(flags.metrics_out.c_str());
    json.KeyValue("export_wall_s", with_export.wall_s);
    correct = plain.failures.empty() && rep.failures.empty() &&
              with_export.failures.empty();
  }
  json.KeyValue("peak_rss_kb", PeakRssKb());
  json.EndObject();
  out << "\n";
  out.close();
  return out.good() && correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload=W --seed=N --seconds=S "
                 "--trace=0|1 --out=FILE [--sim-reps=K] [--scratch=DIR]\n");
    return 2;
  }
  return perfbench::Run(args);
}
