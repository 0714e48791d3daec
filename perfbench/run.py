"""Run the repository benchmark: one workload, or all of them.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_mirage --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py                  # every workload, one interpreter each

``--trace 0`` measures the end-to-end metrics with tracing off, their times
scaled to a nominal host speed by probes (``hostspeed.py``).  ``--trace 1``
makes an untraced pass and a traced pass of the same inputs and reports the
per-layer metrics, the tracing overhead between the two, and the traced
run's integrity checks.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; metric names and units
come from ``BENCHMARK.json``.  Exit status is 0 only when every check held.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
#: ``paper_mirage`` runs here but is not declared in BENCHMARK.json: its
#: seed-to-seed spread is larger than a bound can allow (README.md).
WORKLOADS = ("paper_mirage", "city_multihop", "figure_sweep")

#: Traced self times must add up to the traced loop wall within this share.
COVERAGE_TOLERANCE = 0.05


def load_declaration() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_units(decl: Dict[str, Any], trace: bool) -> Dict[str, str]:
    section = decl["per_layer"] if trace else decl["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def code_digest() -> str:
    """Digest of the program and benchmark sources (keys the ledger)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Ledger:
    """Counter digests of earlier runs, so repeats across processes compare."""

    def __init__(self, path: Path, code: str) -> None:
        self.path = path
        self.code = code

    def check(self, key: str, value: Any) -> List[str]:
        digest = hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
        try:
            entries = json.loads(self.path.read_text())
        except (OSError, ValueError):
            entries = {}
        full_key = f"{self.code}:{key}"
        seen = entries.get(full_key)
        if seen is not None and seen != digest:
            return [f"{key}: simulated outcome differs from an earlier run of the same code"]
        entries[full_key] = digest
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(entries, sort_keys=True, indent=0))
        os.replace(tmp, self.path)
        return []


def peak_rss_mb(children: bool = False) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def process_cpu() -> Dict[str, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "process.cpu_user_s": own.ru_utime + kids.ru_utime,
        "process.cpu_sys_s": own.ru_stime + kids.ru_stime,
    }


#: Per-layer metrics of the sweep layers, zero where a workload bypasses them.
NO_SWEEP = {
    "campaign.enumerate_s": 0.0,
    "runner.executed": 0,
    "runner.cache_hits": 0,
    "runner.failures": 0,
    "runner.run_cpu_s": 0.0,
    "runner.pool_efficiency": 0.0,
    "runner.resume_s": 0.0,
}


def layer_metrics(tracer: Any, counters: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of the simulator layers from one traced pass."""
    from tracing import RX_SPANS

    own = tracer.layer_self_s()
    c = counters
    rx = {layer: tracer.span_calls(name) for layer, name in RX_SPANS.items()}
    return {
        "engine.events": c["engine.events"],
        "engine.self_s": own["engine"],
        "engine.queue_depth_max": tracer.queue_depth_max,
        "engine.compactions": c["engine.compactions"],
        "medium.transmissions": c["medium.transmissions"],
        "medium.deliveries": c["medium.deliveries"],
        "medium.deliveries_per_tx": c["medium.deliveries"] / max(c["medium.transmissions"], 1),
        "medium.collisions": c["medium.collisions"],
        "medium.self_s": own["medium"],
        "medium.finalize_s": tracer.setup.seconds["finalize_s"],
        "link.rx_calls": rx["link"],
        "link.useful_rx_share": c["link.frames_delivered_up"] / max(rx["link"], 1),
        "link.self_s": own["link"],
        "link.ack_share": c["link.acks_received"] / max(c["link.tx_unicast"], 1),
        "link.backoff_rounds": c["link.backoff_rounds"],
        "link.channel_access_failures": c["link.channel_access_failures"],
        "core.rx_calls": rx["core"],
        "core.self_s": own["core"],
        "core.inserts": c["core.inserts"],
        "core.rejections": c["core.rejections"],
        "core.compare_queries": c["core.compare_queries"],
        "core.unicast_samples": c["core.unicast_samples"],
        "net.rx_calls": rx["net"],
        "net.self_s": own["net"],
        "net.beacons_sent": c["net.beacons_sent"],
        "net.parent_switches": c["net.parent_switches"],
        "net.tx_attempts": c["net.tx_attempts"],
        "net.drops": c["net.drops"],
        "net.duplicates_suppressed": c["net.duplicates_suppressed"],
        "workloads.self_s": own["workloads"],
        "workloads.generated": c["workloads.generated"],
        "harness.self_s": own["harness"],
    }


def coverage_problems(tracer: Any) -> List[str]:
    total = sum(tracer.layer_self_s().values())
    wall = tracer.loop_wall_s
    if wall <= 0 or abs(total / wall - 1.0) > COVERAGE_TOLERANCE:
        return [f"layer self times {total:.3f}s do not cover the traced loop wall {wall:.3f}s"]
    return []


def layer_table(tracer: Any) -> List[str]:
    """Human-readable split of the traced loop (printed, not a metric)."""
    wall = tracer.loop_wall_s or 1.0
    lines = [f"traced loop wall {tracer.loop_wall_s:.3f}s over {tracer.runs} run(s)"]
    for layer, own in tracer.layer_self_s().items():
        lines.append(f"  {layer:<10} self {own:9.3f}s  {own / wall * 100:5.1f}%")
    spans = sorted(tracer.spans.items(), key=lambda kv: -kv[1][2])
    for (layer, name), (n, total, own) in spans:
        if n:
            lines.append(
                f"    {layer:<8} {name:<40} {int(n):>9} calls"
                f"  total {total:8.3f}s  self {own:8.3f}s"
            )
    return lines


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------
def run_sim(workload: Any, seed: int, seconds: float, trace: bool, ledger: Ledger, size: str):
    from tracing import LayerTracer
    from workloads import check_sim_pass, sim_pass

    problems: List[str] = []
    failed = 0

    def checked(p: Any, replicate: int) -> None:
        nonlocal failed
        bad = check_sim_pass(workload, p)
        bad += ledger.check(f"{workload.name}:{size}:{seed}:{replicate}", p.counters)
        failed += bool(bad)
        problems.extend(bad)

    if not trace:
        # The job is the workload's replicates; it is repeated (same seeds)
        # only while less than ``seconds`` of loop time has been measured.
        jobs: List[List[Any]] = []
        measured = 0.0
        while not jobs or (measured < seconds and len(jobs) < 3):
            job = [sim_pass(workload, seed, r, probed=True) for r in range(workload.replicates)]
            for r, p in enumerate(job):
                checked(p, r)
                measured += p.loop_wall_s
            jobs.append(job)
        setups = [p for job in jobs for p in job]
        while len(setups) < workload.setup_reps:
            replicate = len(setups) % workload.replicates
            setups.append(sim_pass(workload, seed, replicate, run=False, probed=True))
        job = jobs[0]
        sim_s = workload.duration_s * workload.replicates
        offered = sum(p.counters["offered"] for p in job)
        unique = sum(p.counters["unique_delivered"] for p in job)
        data_tx = sum(p.counters["total_data_tx"] for p in job)
        wall = sum(p.setup_s + p.loop_wall_s for j in jobs for p in j)
        scaled = sum(p.scaled_setup_s + p.scaled_loop_s for j in jobs for p in j)
        metrics = {
            "sim_s_per_wall_s": statistics.median(
                sim_s / sum(p.scaled_loop_s for p in j) for j in jobs
            ),
            "setup_s": statistics.median(p.scaled_setup_s for p in setups),
            "peak_rss_mb": peak_rss_mb(),
            "delivery_ratio": unique / max(offered, 1),
            "cost_tx_per_delivery": data_tx / max(unique, 1),
            "sweep_points_per_s": statistics.median(
                len(j) / sum(p.scaled_setup_s + p.scaled_loop_s for p in j) for j in jobs
            ),
        }
        notes = [
            f"host ran at {scaled / wall:.3f} x nominal speed over {wall:.1f}s of measured work;"
            f" unscaled sim_s_per_wall_s {sim_s / sum(p.loop_wall_s for p in job):.4g}"
        ]
        return metrics, sum(len(j) for j in jobs), failed, problems, notes

    # Traced: the first replicate, untraced then traced.
    plain = sim_pass(workload, seed)
    tracer = LayerTracer()
    tracer.install()
    try:
        traced = sim_pass(workload, seed)
    finally:
        tracer.uninstall()
    checked(plain, 0)
    checked(traced, 0)
    if plain.counters != traced.counters:
        problems.append("traced run's simulated counters differ from the untraced run")
        failed += 1
    problems += coverage_problems(tracer)
    metrics = layer_metrics(tracer, traced.counters)
    metrics.update(NO_SWEEP)
    metrics.update(process_cpu())
    metrics.update(
        {
            "setup.topology_s": traced.topology_s,
            "setup.build_s": traced.build_s - tracer.setup.seconds["finalize_s"],
            "process.setup_rss_mb": plain.setup_rss_mb,
            "trace.overhead_share": traced.loop_wall_s / plain.loop_wall_s - 1.0,
        }
    )
    return metrics, 2, failed, problems, layer_table(tracer)


# ----------------------------------------------------------------------
# figure_sweep
# ----------------------------------------------------------------------
#: Set-up samples per figure_sweep run (cold passes count towards it).
SWEEP_SETUP_REPS = 7


def run_sweep(workload: Any, seed: int, seconds: float, trace: bool, ledger: Ledger, size: str):
    from tracing import LayerTracer
    from workloads import (
        WorkerProbes, check_sweep_pass, sweep_pass, sweep_setup_probe, sweep_totals,
    )

    workdir = WORKDIR / f"sweep-{os.getpid()}"
    n = workload.n_points
    problems: List[str] = []
    failed = 0

    def checked(p: Any) -> None:
        nonlocal failed
        bad_points, bad = check_sweep_pass(workload, p)
        bad += ledger.check(f"{workload.name}:{size}:{seed}", hashlib.sha256(p.summary).hexdigest())
        failed += min(2 * n, bad_points + (n if bad else 0))
        problems.extend(bad)

    try:
        if not trace:
            # One cold pass (and its resume) is the job; it is repeated only
            # while less than ``seconds`` of cold-pass time has been measured.
            passes: List[Any] = []
            measured = 0.0
            with WorkerProbes(workdir / "probes") as host:
                while not passes or (measured < seconds and len(passes) < 3):
                    p = sweep_pass(workload, seed, workdir / f"pass{len(passes)}")
                    checked(p)
                    measured += p.cold_wall_s
                    passes.append(p)
                setups = [p.setup_s for p in passes]
                while len(setups) < SWEEP_SETUP_REPS:
                    setups.append(
                        sweep_setup_probe(workload, seed, workdir / f"probe{len(setups)}")
                    )
            # One speed, from every probe the workers took, scales the run.
            speed = host.speed()
            totals = sweep_totals(passes[0])
            sim_s = n * workload.duration_s
            metrics = {
                "sim_s_per_wall_s": statistics.median(
                    sim_s / (p.cold_wall_s * speed) for p in passes
                ),
                "setup_s": statistics.median(setups) * speed,
                "peak_rss_mb": peak_rss_mb(children=True),
                "delivery_ratio": totals["unique_delivered"] / totals["offered"],
                "cost_tx_per_delivery": totals["total_data_tx"] / totals["unique_delivered"],
                "sweep_points_per_s": statistics.median(
                    n / (p.cold_wall_s * speed) for p in passes
                ),
            }
            notes = [
                f"host ran at {speed:.3f} x nominal speed ({len(host.probes())} probes);"
                f" unscaled sim_s_per_wall_s {sim_s / passes[0].cold_wall_s:.4g}"
            ]
            return metrics, 2 * n * len(passes), failed, problems, notes

        plain = sweep_pass(workload, seed, workdir / "plain")
        checked(plain)
        dump_dir = workdir / "spans"
        dump_dir.mkdir(parents=True)
        tracer = LayerTracer(dump_dir=dump_dir)
        tracer.install()
        try:
            traced = sweep_pass(workload, seed, workdir / "traced")
        finally:
            tracer.uninstall()
        checked(traced)
        for path in sorted(dump_dir.glob("spans-*.json")):
            tracer.absorb(json.loads(path.read_text()))
        if traced.summary != plain.summary:
            problems.append("traced sweep's summary differs from the untraced sweep")
        if tracer.runs != n:
            problems.append(f"traced {tracer.runs} runs in the pool workers, expected {n}")
        problems += coverage_problems(tracer)
        metrics = layer_metrics(tracer, tracer.counters)
        metrics.update(process_cpu())
        metrics.update(
            {
                "campaign.enumerate_s": plain.enumerate_s,
                "runner.executed": plain.executed,
                "runner.cache_hits": plain.resume_hits,
                "runner.failures": plain.failures,
                "runner.run_cpu_s": plain.run_cpu_s,
                "runner.pool_efficiency": plain.run_cpu_s
                / (workload.workers * plain.cold_wall_s),
                "runner.resume_s": plain.resume_s,
                "setup.topology_s": tracer.setup.seconds["topology_s"],
                "setup.build_s": tracer.setup.seconds["build_s"]
                - tracer.setup.seconds["finalize_s"],
                "process.setup_rss_mb": plain.setup_rss_mb,
                "trace.overhead_share": traced.cold_wall_s / plain.cold_wall_s - 1.0,
            }
        )
        return metrics, 4 * n, failed, problems, layer_table(tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def make_workload(name: str, size: str) -> Any:
    import workloads

    if name == "paper_mirage":
        return workloads.paper_mirage(
            **({"duration_s": 150.0, "replicates": 2} if size == "tiny" else {})
        )
    if name == "city_multihop":
        return workloads.city_multihop(
            **({"duration_s": 150.0, "n_nodes": 60, "blocks": 1} if size == "tiny" else {})
        )
    if size == "tiny":
        return workloads.SweepWorkload(seeds_per_protocol=2, duration_s=180.0, warmup_s=60.0)
    return workloads.SweepWorkload()


def run_one(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    units = declared_units(load_declaration(), bool(args.trace))
    WORKDIR.mkdir(exist_ok=True)
    ledger = Ledger(WORKDIR / "ledger.json", code_digest())
    workload = make_workload(args.workload, args.size)
    runner = run_sweep if args.workload == "figure_sweep" else run_sim
    metrics, attempted, failed, problems, table = runner(
        workload, args.seed, args.seconds, bool(args.trace), ledger, args.size
    )
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        raise RuntimeError(f"metrics do not match BENCHMARK.json: missing {missing}, extra {extra}")
    for line in table:
        print(line)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name in units:
        print(f"{args.workload} {name} = {metrics[name]:.6g} {units[name]}")
    correct = not problems and failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": units[name]} for name in units
                },
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own interpreter, so RSS belongs to one workload."""
    status = 0
    rows: List[Tuple[str, str, float, str]] = []
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = 1
        try:
            doc = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})")
            status = 1
            continue
        print(
            f"{name}: correct={doc['correct']} attempted={doc['attempted']} failed={doc['failed']}"
        )
        for metric, value in doc["metrics"].items():
            rows.append((name, metric, value["value"], value["unit"]))
    print()
    for name, metric, value, unit in rows:
        print(f"{name:<14} {metric:<30} {value:>14.6g} {unit}")
    return status


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured loop time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: reduced inputs for the self-tests")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_declaration()["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
