#!/usr/bin/env python3
"""The soccluster benchmark: one command, four workloads (two gated).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the runner from source (perfbench/CMakeLists.txt, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs workload
W from seed N, checks the simulated outputs, and prints every metric by
name and unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. A failed check exits 1
and counts every operation of the run as failed.

    python3 perfbench/run.py --write-manifest

rewrites BENCHMARK.json from the tables below. perfbench/README.md explains
the workloads, the metrics and how each layer metric maps to the
end-to-end ones.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_SECONDS = 55
RUNNER_TIMEOUT_S = 170

# name -> (why, distinct seeds simulated per run). The simulated metrics
# average over that many seeds, which keeps their seed-to-seed spread
# small; the run then repeats those seeds until --seconds is spent.
WORKLOADS = {
    "rideout_day": (
        "1M users, budgeted retries and brownout on 40 SoCs; every dispatch "
        "scans the fleet, so sched placement is a large share, plus obs SLOs",
        8),
    "retry_storm": (
        "naive retries amplify load 250x; per-request bookkeeping (obs SLO, "
        "workload submit, session wheel) leads and sched must read flat",
        5),
    "service_mix_storm": (
        "four services share the chassis in a 0.5x-3x sweep; live, "
        "serverless and gaming churn Reserve/Release between serving picks",
        7),
    "gray_storm": (
        "gray faults with detection on and 0.5 MB responses; the only "
        "workload where net flows and core gray detection do real work",
        16),
}
# The workloads BENCHMARK.json gates. Together they run every layer. The
# other two run on demand: the host is too noisy for four workloads with
# runs long enough to agree (README.md, "Noise and run length").
GATED = ("rideout_day", "gray_storm")

# (name, unit, better, bound). Host metrics are in s and MB; simulated
# ones say so in their unit (sim_ms) or are fractions of requests.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("goodput", "fraction", "higher", 0.05),
    ("mean_ms", "sim_ms", "lower", 0.15),
    ("p99_ms", "sim_ms", "lower", 0.15),
    ("crit_p99_ms", "sim_ms", "lower", 0.2),
]

# (name, unit, better), reported by --trace 1. `<layer>.share` is the
# layer's fraction of the traced run's event time.
PER_LAYER = [
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.ns_per_event", "ns", "lower"),
    ("sim.max_pending", "count", "lower"),
    ("trace.self_s", "s", "lower"),
    ("trace.share", "fraction", "lower"),
    ("trace.sessions", "count", "higher"),
    ("trace.submitted", "count", "lower"),
    ("trace.amplification", "x", "lower"),
    ("trace.useful_ratio", "fraction", "higher"),
    ("trace.wasted", "count", "lower"),
    ("workload.submit_s", "s", "lower"),
    ("workload.submits", "count", "lower"),
    ("workload.self_s", "s", "lower"),
    ("workload.share", "fraction", "lower"),
    ("workload.completed", "count", "higher"),
    ("workload.shed", "count", "lower"),
    ("workload.expired", "count", "lower"),
    ("mem.allocs_per_request", "count", "lower"),
    ("qos.share", "fraction", "lower"),
    ("qos.admitted", "count", "higher"),
    ("qos.dropped", "count", "lower"),
    ("qos.dropped.queue_full", "count", "lower"),
    ("qos.dropped.admit_floor", "count", "lower"),
    ("qos.dropped.expired", "count", "lower"),
    ("qos.sojourn_mean_ms", "sim_ms", "lower"),
    ("qos.brownout_engagements", "count", "lower"),
    ("qos.breaker_opens", "count", "lower"),
    ("sched.self_s", "s", "lower"),
    ("sched.share", "fraction", "lower"),
    ("sched.placements", "count", "higher"),
    ("sched.score_evaluations", "count", "lower"),
    ("sched.evals_per_placement", "count", "lower"),
    ("sched.rejections", "count", "lower"),
    ("sched.pick_ns", "ns", "lower"),
    ("obs.self_s", "s", "lower"),
    ("obs.share", "fraction", "lower"),
    ("obs.slo_records", "count", "lower"),
    ("obs.slo_record_ns", "ns", "lower"),
    ("obs.slo_alerts", "count", "lower"),
    ("obs.export_ratio", "x", "lower"),
    ("core.share", "fraction", "lower"),
    ("core.gray_reports", "count", "lower"),
    ("core.quarantines", "count", "lower"),
    ("core.false_positives", "count", "lower"),
    ("core.health_polls", "count", "lower"),
    ("net.flows", "count", "lower"),
    ("cluster.share", "fraction", "lower"),
    ("unlabeled.share", "fraction", "lower"),
    ("trace_overhead", "x", "lower"),
    ("latency.samples", "count", "higher"),
    ("latency.crit_samples", "count", "higher"),
]

# Layers of the traced ledger, in report order.
LAYERS = ("trace", "workload", "qos", "sched", "obs", "core", "cluster",
          "unlabeled")


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WORKLOADS[name][0]}
                      for name in GATED],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (target if target.is_absolute() else ROOT / target) / "perfbench"


def build_runner():
    """Configures (once) and builds the runner; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "perfbench_runner"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return out / "perfbench_runner"


def run_runner(runner, args, scratch):
    out = scratch / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}.json"
    command = [str(runner), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--trace={args.trace}", f"--out={out}",
               f"--sim-reps={WORKLOADS[args.workload][1]}",
               f"--scratch={scratch}"]
    try:
        code = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUNNER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"runner exceeded {RUNNER_TIMEOUT_S} s")
    if code not in (0, 1) or not out.is_file():
        fail(f"runner exited with status {code} and no result")
    with open(out) as f:
        data = json.load(f)
    out.unlink()
    return code, data


def end_to_end(data):
    reps = data["reps"]
    distinct = reps[:WORKLOADS[data["workload"]][1]]
    mean = lambda key: statistics.fmean(r[key] for r in distinct)
    # wall_s is best-of-N: the work is deterministic, and noise from the
    # rest of the host only ever adds time (README.md, "Noise").
    return {
        "wall_s": min(r["wall_s"] for r in reps),
        "setup_s": statistics.median(data["setup_s"]),
        "peak_rss_mb": data["peak_rss_kb"] / 1024.0,
        "goodput": sum(r["good"] for r in distinct) /
                   sum(r["issued"] for r in distinct),
        "mean_ms": mean("mean_ms"),
        "p99_ms": mean("p99_ms"),
        "crit_p99_ms": mean("crit_p99_ms"),
    }


def layer_self_s(data):
    """Self time per layer over the traced horizon, in host seconds.

    obs (SLO records) and sched (placement picks) run nested inside other
    layers' events, so their time is estimated from the kernels (count x
    ns per call) and carved out of the layer whose events contain them.
    """
    ledger, counts = data["ledger"], data["traced"]["counts"]
    self_s = {layer: ledger["self_s"].get(layer, 0.0) for layer in LAYERS}
    # No library event carries a net.* label today, and the scenario's own
    # events (faults, probes, the stop event) belong to no layer.
    self_s["unlabeled"] += ledger["self_s"]["net"] + ledger["self_s"]["scenario"]
    slo_ns = data["slo_record_ns"] * 1e-9
    obs_in_trace = counts.get("slo.records.trace.session", 0.0) * slo_ns
    self_s["obs"] = counts.get("slo.records", 0.0) * slo_ns
    self_s["sched"] = counts.get("sched.placements", 0.0) * data["pick_ns"] * 1e-9
    self_s["trace"] -= obs_in_trace
    self_s["workload"] -= self_s["sched"] + self_s["obs"] - obs_in_trace
    return {layer: max(0.0, value) for layer, value in self_s.items()}


def per_layer(data):
    plain, traced, ledger = data["reps"][0], data["traced"], data["ledger"]
    counts = traced["counts"]
    count = lambda name: counts.get(name, 0.0)
    self_s = layer_self_s(data)
    total_s = sum(self_s.values())
    if "trace.sessions" in counts:
        submitted, issued = count("trace.submitted"), count("trace.issued")
        good, wasted = count("trace.good"), count("trace.wasted")
    else:  # Rated sources: one attempt per request, nothing abandoned.
        submitted = issued = traced["issued"]
        good, wasted = traced["good"], 0.0
    events = ledger["events"]
    metrics = {
        "sim.events": events,
        "sim.events_per_s": events / plain["wall_s"],
        "sim.ns_per_event": plain["wall_s"] * 1e9 / events,
        "sim.max_pending": count("sim.max_pending_events"),
        "trace.self_s": self_s["trace"],
        "trace.sessions": count("trace.sessions"),
        "trace.submitted": submitted,
        "trace.amplification": submitted / issued,
        "trace.useful_ratio": good / submitted,
        "trace.wasted": wasted,
        "workload.submit_s": ledger["span_s"]["workload"],
        "workload.submits": ledger["submits"],
        "workload.self_s": self_s["workload"],
        "workload.completed": count("workload.completed"),
        "workload.shed": count("workload.shed"),
        "workload.expired": count("workload.expired"),
        "mem.allocs_per_request": ledger["allocations"] / ledger["submits"],
        "qos.admitted": count("qos.admission.admitted"),
        "qos.dropped": count("qos.admission.dropped"),
        "qos.sojourn_mean_ms": count("qos.admission.sojourn_sum_ms") /
                               max(1.0, count("qos.admission.sojourn_count")),
        "qos.brownout_engagements": count("qos.brownout.engagements"),
        "qos.breaker_opens": count("qos.breaker.opens"),
        "sched.self_s": self_s["sched"],
        "sched.placements": count("sched.placements"),
        "sched.score_evaluations": count("sched.score_evaluations"),
        "sched.evals_per_placement":
            count("sched.score_evaluations") / max(1.0, count("sched.placements")),
        "sched.rejections": count("sched.rejections"),
        "sched.pick_ns": data["pick_ns"],
        "obs.self_s": self_s["obs"],
        "obs.slo_records": count("slo.records"),
        "obs.slo_record_ns": data["slo_record_ns"],
        "obs.slo_alerts": count("slo.alerts"),
        "obs.export_ratio": data["export_wall_s"] / plain["wall_s"],
        "core.gray_reports": count("gray.reports"),
        "core.quarantines": count("gray.quarantines"),
        "core.false_positives": plain["counts"].get("core.false_positives", 0.0),
        "core.health_polls": ledger["labels"].get("health.poll", [0])[0],
        "net.flows": count("net.flows_started"),
        "trace_overhead": traced["wall_s"] / plain["wall_s"],
        "latency.samples": traced["latency_samples"],
        "latency.crit_samples": traced["crit_samples"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = self_s[layer] / total_s
    for reason in ("queue_full", "admit_floor", "expired"):
        metrics[f"qos.dropped.{reason}"] = count(f"qos.admission.dropped.{reason}")
    return metrics


def print_table(data, metrics, units):
    print(f"perfbench {data['workload']} seed={data['seed']} "
          f"trace={data['trace']}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:16.6g} {units[name]}")
    if data["trace"] == 1:
        ranking = sorted(((v, k) for k, v in layer_self_s(data).items()),
                         reverse=True)
        print("  layer ranking by self time: " +
              ", ".join(f"{layer} {value:.3f}s" for value, layer in ranking))
    else:
        reps = data["reps"]
        walls = [r["wall_s"] for r in reps]
        print(f"  wall_s over {len(reps)} reps: min {min(walls):.4f} median "
              f"{statistics.median(walls):.4f} max {max(walls):.4f}; "
              f"setup_s over {len(data['setup_s'])} set-ups: min "
              f"{min(data['setup_s']):.3g}")
        print(f"  per rep: p50_ms {reps[0]['p50_ms']:.4f} over "
              f"{reps[0]['latency_samples']} served requests, crit_p99_ms "
              f"over {reps[0]['crit_samples']} critical ones")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args()
    if args.write_manifest:
        with open(ROOT / "BENCHMARK.json", "w") as f:
            json.dump(manifest(), f, indent=2)
            f.write("\n")
        return 0
    if args.workload is None or args.seed is None or args.seed < 0:
        parser.error("--workload and a non-negative --seed are required")

    runner = build_runner()
    scratch = build_dir() / "runs"
    scratch.mkdir(parents=True, exist_ok=True)
    code, data = run_runner(runner, args, scratch)

    if args.trace == 0:
        reps = data["reps"]
        metrics = end_to_end(data)
        table = END_TO_END
    else:
        reps = [data["reps"][0], data["traced"]]
        metrics = per_layer(data)
        table = PER_LAYER
    failures = [f for rep in reps for f in rep["failures"]]
    correct = code == 0 and not failures
    attempted = sum(rep["issued"] for rep in reps)
    print_table(data, metrics, {row[0]: row[1] for row in table})
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {row[0]: {"value": metrics[row[0]], "unit": row[1]}
                    for row in table},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
