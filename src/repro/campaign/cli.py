"""Campaign CLI: run, resume and inspect declarative campaign files.

Examples::

    # run the paper's ku/kb ablation grid on 4 workers
    python -m repro.campaign run examples/ablation_kukb.json --workers 4

    # interrupt it (Ctrl-C or SIGTERM), then pick it back up — completed
    # points come back as cache hits, nothing re-executes
    python -m repro.campaign resume examples/ablation_kukb.json --workers 4

    # where is it?  (points cached vs planned, rounds done, summary state)
    python -m repro.campaign status examples/ablation_kukb.json

    # closed-loop estimator tuning: a mode "optimize" file runs the same way
    python -m repro.campaign run examples/tune_estimator.json

    # the CI sweep: a protocol x power x seed collection grid on 2 workers,
    # its summary JSON piped on stdout, the report on stderr
    python -m repro.campaign run examples/smoke_sweep.json --workers 2 --out -

A campaign file's ``mode`` is ``grid``, ``random`` or ``optimize``; every
mode writes one summary shape (the points, plus the ``best`` point when the
file names an ``objective``), and ``optimize`` adds its per-round
``history``.  A ``collection`` spec's ``faults`` and ``mobility`` take a
preset name (examples/chaos_reboot_storm.json), a JSON file or an inline
object.  Points that set ``profile_events`` add a ``[profile]`` table to
the report.  Base params ``telemetry_period_s`` and ``telemetry_path``
stream each run's telemetry, and ``--telemetry`` adds the sweep and
campaign records (see examples/live_telemetry.json); a point served from
the cache never runs, so it streams no run records.  To drop every cached
result, delete the cache directory.

Exit codes: 0 success, 1 usage/spec error, 3 interrupted (resumable),
4 some point failed (the summary is still written and lists its error).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from repro.campaign.queue import (
    DEFAULT_STATE_ROOT,
    Campaign,
    CampaignInterrupted,
    load_campaign_file,
)
from repro.runner.cache import ResultCache, cache_dir_from_env

EXIT_INTERRUPTED = 3
EXIT_FAILED = 4


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("spec", help="campaign spec file (.json, or .toml on Python >= 3.11)")
    parser.add_argument(
        "--state-dir",
        default=None,
        help=f"campaign state root (default: $REPRO_CAMPAIGN_DIR or {DEFAULT_STATE_ROOT})",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"result cache location (default: $REPRO_CACHE_DIR or {cache_dir_from_env()})",
    )


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument("--workers", type=int, default=1, help="process count (1 = serial)")
    parser.add_argument("--timeout", type=float, default=None, help="per-run timeout (seconds)")
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the summary JSON here ('-' = stdout)",
    )
    parser.add_argument(
        "--stop-after", type=int, default=None, metavar="K",
        help="deterministic forced interruption after K executed runs "
        "(CI smoke / property tests; exits with code 3 like a signal would)",
    )
    parser.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="append campaign + sweep stream records to this JSONL file",
    )
    parser.add_argument("--progress", action="store_true", help="print runner throughput lines")
    parser.add_argument("--quiet", action="store_true", help="suppress the closing report")


def _build_campaign(args: argparse.Namespace) -> Campaign:
    spec = load_campaign_file(args.spec)
    telemetry = None
    if getattr(args, "telemetry", None):
        from repro.obs.stream import RecordLog

        telemetry = RecordLog(args.telemetry)
    return Campaign(
        spec,
        state_root=args.state_dir,
        cache=ResultCache(args.cache_dir),
        workers=getattr(args, "workers", 1),
        timeout_s=getattr(args, "timeout", None),
        telemetry=telemetry,
        progress=getattr(args, "progress", False),
        stop_after=getattr(args, "stop_after", None),
    )


def _cmd_run(args: argparse.Namespace) -> int:
    campaign = _build_campaign(args)
    try:
        return _run_campaign(campaign, args)
    finally:
        if campaign.telemetry is not None:
            campaign.telemetry.close()


def _run_campaign(campaign: Campaign, args: argparse.Namespace) -> int:
    def _on_signal(signum, frame):  # pragma: no cover - exercised via subprocess
        campaign.request_stop()

    previous = {}
    for signame in ("SIGTERM", "SIGINT"):
        signum = getattr(signal, signame, None)
        if signum is not None:
            previous[signum] = signal.signal(signum, _on_signal)
    try:
        try:
            doc = campaign.run()
        except CampaignInterrupted as exc:
            stats = campaign.last_stats
            print(
                f"[campaign] interrupted after {exc.completed} executed run(s) "
                f"({stats.cache_hits} cached); state saved under {campaign.state_dir} — "
                f"resume with: python -m repro.campaign resume {args.spec}",
                file=sys.stderr,
            )
            return EXIT_INTERRUPTED
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    if args.out:
        text = campaign.summary_path.read_text()
        if args.out == "-":
            sys.stdout.write(text)
        else:
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            Path(args.out).write_text(text)
    stats = campaign.last_stats
    if not args.quiet:
        line = (
            f"[campaign] {campaign.spec.name}: {stats.executed} executed, "
            f"{stats.cache_hits} cached, {stats.failures} failed; "
            f"summary: {campaign.summary_path}"
        )
        best = doc.get("best")
        if best:
            line += f"\n[campaign] best {doc['objective']}: {best['score']} at {best['params']}"
        for failure in campaign.runner.totals.failures:
            line += f"\n[campaign] failed {failure.label}: {failure.error}"
        print(line, file=sys.stderr)
        if campaign.runner.totals.profile:
            print(campaign.runner.totals.profile_report(), file=sys.stderr)
    return EXIT_FAILED if stats.failures else 0


def _cmd_status(args: argparse.Namespace) -> int:
    campaign = _build_campaign(args)
    status = campaign.status()
    json.dump(status, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a campaign spec (resumes automatically)")
    _add_run_args(run_p)
    resume_p = sub.add_parser("resume", help="alias of run: cached points are never re-executed")
    _add_run_args(resume_p)
    status_p = sub.add_parser("status", help="report cached/planned progress without executing")
    _add_common(status_p)

    args = parser.parse_args(argv)
    try:
        if args.command in ("run", "resume"):
            return _cmd_run(args)
        return _cmd_status(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
