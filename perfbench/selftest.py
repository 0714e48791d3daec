"""Self-tests of the benchmark harness.

These sit beside the benchmark, outside the program's own test suite.  Run
from the repository root::

    python3 perfbench/selftest.py

Each workload runs at a tiny size with tracing off and on; the paper's claim
check runs at full size on a seed that was not used while the benchmark was
built.  About two minutes on one core.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path
from typing import Any, Dict, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

#: Seed for the claim check; no run used it while the benchmark was built.
HELD_OUT_SEED = 4242

WORKLOADS = ("paper_mirage", "city_multihop", "figure_sweep")


def run_bench(
    workload: str, trace: int, seed: int = 7, size: str = "tiny", cwd: Path = ROOT
) -> Tuple[subprocess.CompletedProcess, Dict[str, Any]]:
    proc = subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", size,
        ],
        cwd=cwd, capture_output=True, text=True, timeout=900, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else {}
    except ValueError:
        doc = {}
    return proc, doc


def declared(section: str) -> Dict[str, str]:
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in decl[section]}


class TinyWorkloads(unittest.TestCase):
    def assert_result(
        self, proc: subprocess.CompletedProcess, doc: Dict[str, Any], section: str
    ) -> None:
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:] + proc.stderr[-2000:])
        self.assertEqual(set(doc), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(doc["correct"])
        self.assertGreaterEqual(doc["attempted"], 1)
        self.assertEqual(doc["failed"], 0)
        units = {name: m["unit"] for name, m in doc["metrics"].items()}
        self.assertEqual(units, declared(section))
        for name, m in doc["metrics"].items():
            self.assertIsInstance(m["value"], float, name)

    def test_untraced_runs_name_every_end_to_end_metric(self) -> None:
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, doc = run_bench(workload, trace=0)
                self.assert_result(proc, doc, "end_to_end")
                for name, m in doc["metrics"].items():
                    self.assertGreater(m["value"], 0.0, name)

    def test_traced_runs_name_every_per_layer_metric_and_cover_the_loop(self) -> None:
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, doc = run_bench(workload, trace=1)
                self.assert_result(proc, doc, "per_layer")
                lines = proc.stdout.splitlines()
                wall = float(lines[0].split()[3].rstrip("s"))
                selfs = [float(line.split()[2].rstrip("s")) for line in lines[1:8]]
                self.assertAlmostEqual(sum(selfs) / wall, 1.0, delta=0.05)
                m = doc["metrics"]
                self.assertGreater(m["link.rx_calls"]["value"], m["core.rx_calls"]["value"])
                if workload == "figure_sweep":
                    self.assertGreater(m["runner.executed"]["value"], 0)
                    self.assertEqual(m["runner.cache_hits"]["value"], m["runner.executed"]["value"])
                else:
                    self.assertEqual(m["runner.executed"]["value"], 0)


class ClaimCheck(unittest.TestCase):
    def test_paper_mirage_delivery_on_a_held_out_seed(self) -> None:
        proc, doc = run_bench("paper_mirage", trace=0, seed=HELD_OUT_SEED, size="full")
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:] + proc.stderr[-2000:])
        self.assertTrue(doc["correct"])
        self.assertGreaterEqual(doc["metrics"]["delivery_ratio"]["value"], 0.98)


class Harness(unittest.TestCase):
    def test_span_self_time_excludes_children(self) -> None:
        from tracing import LayerTracer

        tracer = LayerTracer()

        def inner() -> None:
            time.sleep(0.02)

        wrapped_inner = tracer._span(inner, "core", "inner")

        def outer() -> None:
            time.sleep(0.01)
            wrapped_inner()

        tracer._span(outer, "net", "outer")()
        (n_in, total_in, self_in) = tracer.spans[("core", "inner")]
        (n_out, total_out, self_out) = tracer.spans[("net", "outer")]
        self.assertEqual((n_in, n_out), (1, 1))
        self.assertAlmostEqual(self_in, total_in)
        self.assertAlmostEqual(self_out, total_out - total_in)
        self.assertAlmostEqual(tracer.top_s, total_out)

    def test_fails_without_the_program(self) -> None:
        bare = ROOT / ".perfbench" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc, doc = run_bench("paper_mirage", trace=0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(doc, {})
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
