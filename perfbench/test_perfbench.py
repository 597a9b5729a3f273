#!/usr/bin/env python3
"""Smoke tests of the repository benchmark.

    python3 -m unittest perfbench/test_perfbench.py    (from the repo root)

Each test runs perfbench/run.py in its tiny --smoke mode: every metric
BENCHMARK.json names must come out with its unit on every workload run.py
offers, and a corrupted pinned value must surface as failed operations and
a non-zero exit.
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402  (every workload, listed or not)


def run_bench(workload, trace, pinned=None):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
           "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    if pinned is not None:
        cmd += ["--pinned", str(pinned)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_every_metric_is_emitted_with_its_unit(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]},
                             set(WORKLOADS))
        for workload in WORKLOADS:
            for trace, declared in ((0, SPEC["end_to_end"]),
                                    (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc, result = run_bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.check_metrics(result, declared)

    def test_corrupted_pinned_value_yields_errors(self):
        pinned = json.loads((HERE / "pinned.json").read_text())
        pinned["static.default"]["sdc"] += 1
        bad = ROOT / ".bench_build" / "perfbench" / "pinned-corrupted.json"
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_text(json.dumps(pinned))
        try:
            proc, result = run_bench("bulk_static", 0, pinned=bad)
        finally:
            bad.unlink()
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("static.default", proc.stdout)


if __name__ == "__main__":
    unittest.main()
