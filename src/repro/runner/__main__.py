"""Standalone sweep CLI for the parallel experiment runner.

Runs a (protocol × tx-power × seed) collection grid through
:class:`~repro.runner.runner.ExperimentRunner` and prints one summary row
per cell plus runner throughput stats.  Examples::

    # 2-core smoke sweep, cached in .repro-cache (the CI invocation)
    python -m repro.runner --protocols 4b,mhlqi --powers 0 --seeds 2 \\
        --nodes 20 --minutes 4 --workers 2 --cache-dir .repro-cache

    # full fig7-style power sweep on 4 workers, JSON results
    python -m repro.runner --protocols 4b,mhlqi --powers 0,-10,-20 \\
        --seeds 4 --workers 4 --json results/sweep.json

    # drop every cached result
    python -m repro.runner --clear-cache
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.runner.cache import ResultCache, cache_dir_from_env
from repro.runner.runner import ExperimentRunner


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--protocols", default="4b,mhlqi", help="comma-separated protocol keys")
    parser.add_argument("--powers", default="0", help="comma-separated tx powers (dBm)")
    parser.add_argument("--seeds", type=int, default=2, help="run seeds 1..N per cell")
    parser.add_argument("--profile", default="mirage", help="testbed profile name")
    parser.add_argument("--nodes", type=int, default=None, help="shrink the testbed to N nodes")
    parser.add_argument("--minutes", type=float, default=7.0, help="simulated minutes per run")
    parser.add_argument("--warmup", type=float, default=2.0, help="warmup minutes")
    parser.add_argument("--workers", type=int, default=1, help="process count (1 = serial)")
    parser.add_argument("--timeout", type=float, default=None, help="per-run timeout (seconds)")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"result cache location (default: $REPRO_CACHE_DIR or {cache_dir_from_env()})",
    )
    parser.add_argument("--no-cache", action="store_true", help="disable the result cache")
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write results as JSON ('-' = stdout; summary rows then move to stderr)",
    )
    parser.add_argument("--clear-cache", action="store_true", help="delete cached results and exit")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress, summary rows and stats"
    )
    parser.add_argument(
        "--profile-events",
        action="store_true",
        help="profile the event loop in every run and report where time went",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="PRESET|FILE",
        help="inject faults: a preset name (e.g. reboot_storm) or a JSON "
        "scenario file; implies --collect-metrics so faults.* counters "
        "surface in the summary",
    )
    parser.add_argument(
        "--mobility",
        default=None,
        metavar="PRESET|FILE",
        help="random-waypoint motion: a preset name (pedestrian, vehicular) "
        "or a MobilityConfig JSON file; default is a static network",
    )
    parser.add_argument(
        "--check-invariants",
        action="store_true",
        help="run the invariant checker in every run (fails loudly on a "
        "violated structural property)",
    )
    parser.add_argument(
        "--medium",
        default="exact",
        choices=("exact", "fast"),
        help="radio medium backend: 'exact' is the bit-identical scalar "
        "path; 'fast' is the vectorized, spatially-culled backend "
        "(distribution-equivalent — see DESIGN.md §9)",
    )
    parser.add_argument(
        "--live-telemetry",
        default=None,
        metavar="PATH",
        help="stream live telemetry (JSONL) from every run and the sweep "
        "itself to PATH; follow it with `python -m repro.obs tail -f PATH`. "
        "Disables the result cache — a cached run never executes, so it "
        "would stream nothing",
    )
    parser.add_argument(
        "--telemetry-period",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="simulated seconds between telemetry snapshots (with --live-telemetry)",
    )
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")

    if args.clear_cache:
        cache = ResultCache(args.cache_dir)
        removed = cache.clear()
        print(f"cleared {removed} cached result(s) from {cache.root}")
        return 0
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    if args.live_telemetry is not None and cache is not None:
        print(
            "[runner] --live-telemetry disables the result cache "
            "(cached runs never execute, so they would stream nothing)",
            file=sys.stderr,
        )
        cache = None

    # Imported late so `--help`/`--clear-cache` stay instant.
    from repro.experiments.common import Cell, ExperimentScale, run_cells

    scale = ExperimentScale(
        profile_name=args.profile,
        n_nodes=args.nodes,
        duration_s=args.minutes * 60.0,
        warmup_s=args.warmup * 60.0,
        seeds=tuple(range(1, args.seeds + 1)),
    )
    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    powers = [float(p) for p in args.powers.split(",") if p.strip()]
    overrides = {"profile_events": True} if args.profile_events else {}
    if args.faults is not None:
        from repro.faults.presets import PRESET_NAMES
        from repro.faults.schedule import FaultSchedule

        if args.faults in PRESET_NAMES:
            overrides["faults"] = args.faults
        elif Path(args.faults).exists():
            # File scenarios are loaded here so the cache key reflects the
            # schedule's *content*, not the path it happened to live at.
            overrides["faults"] = FaultSchedule.from_json_file(args.faults)
        else:
            parser.error(
                f"--faults {args.faults!r}: not a preset {PRESET_NAMES} "
                f"and no such file"
            )
        overrides["collect_metrics"] = True
    if args.mobility is not None:
        from repro.sim.mobility import MOBILITY_PRESETS, MobilityConfig

        if args.mobility in MOBILITY_PRESETS:
            overrides["mobility"] = args.mobility
        elif Path(args.mobility).exists():
            # Like --faults FILE: load here so the cache key digests the
            # config's *content*, not the path it happened to live at.
            overrides["mobility"] = MobilityConfig.from_json_file(args.mobility)
        else:
            parser.error(
                f"--mobility {args.mobility!r}: not a preset "
                f"{sorted(MOBILITY_PRESETS)} and no such file"
            )
    if args.check_invariants:
        overrides["check_invariants"] = True
    if args.medium != "exact":
        # Only non-default backends enter the override table, so existing
        # exact-path cache keys are unaffected by the flag's presence.
        overrides["medium"] = args.medium
    if args.live_telemetry is not None:
        overrides["telemetry_period_s"] = args.telemetry_period
        overrides["telemetry_path"] = args.live_telemetry
    cells = [
        Cell.make(proto, label=f"{proto} @{power:+.0f}dBm", tx_power_dbm=power, **overrides)
        for power in powers
        for proto in protocols
    ]

    telemetry_sink = None
    if args.live_telemetry is not None:
        from repro.obs.stream import JsonlStreamSink

        telemetry_sink = JsonlStreamSink(args.live_telemetry)
    runner = ExperimentRunner(
        workers=args.workers,
        cache=cache,
        timeout_s=args.timeout,
        progress=not args.quiet,
        telemetry=telemetry_sink,
    )
    averaged = run_cells(scale, cells, runner)
    if telemetry_sink is not None:
        telemetry_sink.close()

    # Only JSON may touch stdout when `--json -` is in play: summary rows
    # move to stderr so `python -m repro.runner --json - | jq` stays valid.
    rows_out = sys.stderr if args.json == "-" else sys.stdout
    if not args.quiet:
        for result in averaged:
            print(result.summary_row(), file=rows_out)
        if args.faults is not None:
            totals = {}
            for result in averaged:
                for run in result.runs:
                    for key, value in (run.metrics or {}).items():
                        name = key.split("{", 1)[0]
                        if name.startswith("faults."):
                            totals[name] = totals.get(name, 0) + value
            for name in sorted(totals):
                print(f"  {name} = {totals[name]:g}", file=rows_out)
        print(runner.stats.summary(), file=sys.stderr)
        if args.profile_events:
            print(runner.stats.profile_report(), file=sys.stderr)

    if args.json:
        payload = {
            "scale": {
                "profile": args.profile,
                "n_nodes": args.nodes,
                "duration_s": scale.duration_s,
                "warmup_s": scale.warmup_s,
                "seeds": list(scale.seeds),
            },
            "cells": [r.to_json_dict() for r in averaged],
            "runner": {
                "workers": args.workers,
                "cache_hits": runner.stats.cache_hits,
                "executed": runner.stats.executed,
                "events_run": runner.stats.events_run,
                "wall_s": runner.stats.wall_s,
                "cpu_s": runner.stats.resources.get("cpu_s"),
                "max_rss_kb": runner.stats.resources.get("max_rss_kb"),
                "profile": runner.stats.profile,
            },
        }
        # to_json_dict maps inf/NaN to null, so strict JSON is safe here.
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
        if args.json == "-":
            sys.stdout.write(text)
        else:
            path = Path(args.json)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
