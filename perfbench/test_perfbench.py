#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

- BENCHMARK.json is exactly what run.py's tables generate.
- Cross-check: for seed 42 each workload's simulated values equal, key for
  key and bit for bit, what bench_metastable_rideout, bench_overload_storm
  and bench_gray_failure write to their BENCH_*.json with matching flags.
  This shows the runner rebuilt the real scenarios.
- A traced run passes its checks, including the traced digest matching
  the untraced one.
- Without the simulator sources next to it the benchmark fails fast and
  prints no result.

Builds into $CARGO_TARGET_DIR/perfbench-test (default .bench_build) and
keeps its scratch files there.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

# workload -> (reference bench, its flags)
CROSSCHECK = {
    "rideout_day": ("bench_metastable_rideout", ["--mode=rideout"]),
    "retry_storm": ("bench_metastable_rideout",
                    ["--mode=naive", "--users=250000", "--socs=10",
                     "--day-minutes=20"]),
    "service_mix_storm": ("bench_overload_storm", []),
    "gray_storm": ("bench_gray_failure", []),
}
SEED = 42


def build_all():
    out = run.build_dir().parent / "perfbench-test"
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                    "-DCMAKE_BUILD_TYPE=Release", "-DPERFBENCH_CROSSCHECK=ON"],
                   check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", str(out), "-j",
                    str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=subprocess.DEVNULL)
    return out


class ManifestTest(unittest.TestCase):
    def test_benchmark_json_matches_tables(self):
        with open(ROOT / "BENCHMARK.json") as f:
            self.assertEqual(json.load(f), run.manifest())


class CrossCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build = build_all()
        cls.tmp = Path(tempfile.mkdtemp(dir=cls.build))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def bench_values(self, bench, flags):
        out = self.tmp / f"{bench}{'_'.join(flags)}"
        out.mkdir(exist_ok=True)
        subprocess.run([str(self.build / bench), f"--seed={SEED}", *flags],
                       check=True, cwd=out, stdout=subprocess.DEVNULL,
                       env={**os.environ, "SOC_BENCH_OUT_DIR": str(out)})
        (report,) = out.glob("BENCH_*.json")
        with open(report) as f:
            return {m["metric"]: m["value"] for m in json.load(f)["metrics"]}

    def runner(self, workload, trace):
        out = self.tmp / f"{workload}-{trace}.json"
        code = subprocess.run(
            [str(self.build / "perfbench_runner"), f"--workload={workload}",
             f"--seed={SEED}", "--seconds=0", f"--trace={trace}",
             "--sim-reps=1", f"--out={out}", f"--scratch={self.tmp}"],
            stdout=subprocess.DEVNULL).returncode
        with open(out) as f:
            return code, json.load(f)

    def test_simulated_values_equal_reference_benches(self):
        for workload, (bench, flags) in CROSSCHECK.items():
            with self.subTest(workload=workload):
                code, data = self.runner(workload, trace=0)
                self.assertEqual(code, 0, data["reps"][0]["failures"])
                ours = data["reps"][0]["bench"]
                reference = self.bench_values(bench, flags)
                self.assertGreater(len(ours), 10)
                for key, value in ours.items():
                    self.assertEqual(value, reference[key], key)

    def test_traced_run_keeps_the_digest(self):
        code, data = self.runner("gray_storm", trace=1)
        self.assertEqual(code, 0, data["traced"]["failures"])
        self.assertEqual(data["traced"]["digest"], data["reps"][0]["digest"])
        self.assertGreater(data["ledger"]["events"], 0)


class NoSourcesTest(unittest.TestCase):
    def test_fails_without_simulator_sources(self):
        scratch = run.build_dir().parent
        scratch.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "gray_storm", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
                env={k: v for k, v in os.environ.items()
                     if k != "CARGO_TARGET_DIR"})
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
