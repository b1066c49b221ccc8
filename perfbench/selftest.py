"""The benchmark's own tests: tiny smoke runs, a tampered expectation, and
the agreement of ``BENCHMARK.json`` with the metric tables in ``run.py``.

Run from the repository root (about a minute)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
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


def bench(*args, cwd=ROOT):
    completed = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                                *args], cwd=cwd, capture_output=True, text=True,
                               timeout=300)
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return completed.returncode, result, completed


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.WORK.mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
        cls.expected = cls.tmp / "tiny.json"
        code, _, completed = bench("--workload", "all", "--seed", "1", "--size",
                                   "tiny", "--refresh", "--expected", str(cls.expected))
        assert code == 0, completed.stderr

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def run_tiny(self, workload, trace, expected=None):
        return bench("--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny",
                     "--expected", str(expected or self.expected))

    def test_smoke_every_workload(self):
        for workload in run.WORKLOADS:
            for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    code, result, completed = self.run_tiny(workload, trace)
                    self.assertEqual(code, 0, completed.stderr)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(list(result["metrics"]), list(names))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], names[name][0])
                    if trace == 0:
                        for name in ("setup_s", "uops_per_s", "peak_rss_mb"):
                            self.assertGreater(result["metrics"][name]["value"], 0)

    def test_tampered_expectation_fails_the_run(self):
        data = json.loads(self.expected.read_text())
        cells = data["workloads"]["fig4-sweep"]["cells"]
        first = sorted(cells)[0]
        cells[first]["digest"] = "0" * len(cells[first]["digest"])
        tampered = self.tmp / "tampered.json"
        tampered.write_text(json.dumps(data))
        code, result, _ = self.run_tiny("fig4-sweep", 0, expected=tampered)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_refuses_to_run_without_the_simulator(self):
        bare = self.tmp / "bare"
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, result, _ = bench("--workload", "fig4-sweep", "--seed", "1",
                                "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)

    def test_benchmark_json_matches_the_metric_tables(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            self.assertEqual(
                {m["name"]: (m["unit"], m["better"]) for m in spec[key]},
                {name: (unit, better) for name, (unit, better, _) in table.items()})
        end_to_end = {m["name"]: m for m in spec["end_to_end"]}
        self.assertEqual(max(m["bound"] for m in spec["end_to_end"]),
                         end_to_end["setup_s"]["bound"])


if __name__ == "__main__":
    unittest.main()
