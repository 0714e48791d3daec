"""Offline trace analysis — ``python -m repro.obs``.

Answers debugging questions from an exported JSONL trace (see the schema
in :mod:`repro.sim.trace`) without re-running the simulation::

    python -m repro.obs summary trace.jsonl          # whole-run overview
    python -m repro.obs timeline trace.jsonl --node 7 --kind parent-change
    python -m repro.obs flaps trace.jsonl            # parent churn per node
    python -m repro.obs convergence trace.jsonl      # est. ETX vs ground truth
    python -m repro.obs journey trace.jsonl          # per-packet span trees
    python -m repro.obs tail live.jsonl --check      # telemetry stream records
    python -m repro.obs tail live.jsonl -f           # ... following live appends

Several trace files may be passed; records from every file are pooled in
the order given.

All analysis output goes to stdout; it is plain text, not JSON.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter as TallyCounter
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.render import table, timeseries
from repro.sim.trace import NETWORK_NODE, Tracer


def _load(paths: List[str]) -> Tracer:
    return Tracer.from_jsonl(*paths)


def _hist(values: List[float], bins: int = 10, width: int = 40) -> str:
    """Text histogram: one bar per bin, count-scaled."""
    if not values:
        return "(no data)"
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    counts = [0] * bins
    for v in values:
        idx = min(bins - 1, int((v - lo) / span * bins))
        counts[idx] += 1
    peak = max(counts)
    lines = []
    for i, n in enumerate(counts):
        b_lo = lo + span * i / bins
        b_hi = lo + span * (i + 1) / bins
        bar = "#" * (n * width // peak if peak else 0)
        lines.append(f"  [{b_lo:8.3f}, {b_hi:8.3f})  {n:>6}  {bar}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------
def cmd_summary(args: argparse.Namespace) -> int:
    tracer = _load(args.trace)
    records = list(tracer.records)
    events = [r for r in records if r.kind != "stats"]
    nodes = sorted({r.node for r in records if r.node != NETWORK_NODE})
    print(f"{len(records)} records from {len(args.trace)} file(s), {len(nodes)} nodes")
    if records:
        t0 = min(r.time for r in records)
        t1 = max(r.time for r in records)
        print(f"span: {t0:.3f}s .. {t1:.3f}s")
    if tracer.dropped:
        print(f"WARNING: {tracer.dropped} records were dropped at capacity")
    if tracer.filtered:
        print(f"note: {tracer.filtered} records were excluded by a kind filter")

    kinds = TallyCounter(r.kind for r in events)
    if kinds:
        print()
        print(table(
            ["kind", "records"],
            [[k, n] for k, n in sorted(kinds.items(), key=lambda kv: -kv[1])],
            title="records by kind",
        ))

    # Per-layer counter totals from the end-of-run `stats` records.  These
    # match the in-process stats dataclasses exactly (they are emitted from
    # them), so the four-bit event counts here are authoritative.
    stats_recs = [r for r in records if r.kind == "stats"]
    by_layer: Dict[str, TallyCounter] = {}
    layer_nodes: Dict[str, int] = {}
    for r in stats_recs:
        layer = str(r.get("layer", "?"))
        tally = by_layer.setdefault(layer, TallyCounter())
        layer_nodes[layer] = layer_nodes.get(layer, 0) + 1
        for key, value in r.fields.items():
            if key == "layer" or not isinstance(value, (int, float)):
                continue
            tally[key] += value
    if by_layer:
        rows = []
        for layer in sorted(by_layer):
            for counter, total in sorted(by_layer[layer].items()):
                if isinstance(total, float) and total == int(total):
                    total = int(total)
                rows.append([f"{layer}.{counter}", total])
        print()
        print(table(["counter (summed over nodes)", "total"], rows,
                    title="end-of-run counter totals"))
    else:
        print("\n(no `stats` records — trace was exported before run end "
              "or with a kind filter)")
    return 0


# ---------------------------------------------------------------------------
# timeline
# ---------------------------------------------------------------------------
def cmd_timeline(args: argparse.Namespace) -> int:
    tracer = _load(args.trace)
    rows = tracer.filter(
        kind=args.kind,
        node=args.node,
        t0=args.t0 if args.t0 is not None else float("-inf"),
        t1=args.t1 if args.t1 is not None else float("inf"),
    )
    total = len(rows)
    for r in rows[: args.limit]:
        print(f"{r.time:10.3f}s  node {r.node:<4} {r.kind:<14} {r.detail}")
    if total > args.limit:
        print(f"... {total - args.limit} more (raise --limit)")
    if not rows:
        print("(no matching records)")
    return 0


# ---------------------------------------------------------------------------
# flaps
# ---------------------------------------------------------------------------
def cmd_flaps(args: argparse.Namespace) -> int:
    tracer = _load(args.trace)
    changes = tracer.filter(kind="parent-change")
    if not changes:
        print("(no parent-change records)")
        return 0
    per_node: Dict[int, List] = {}
    for r in changes:
        per_node.setdefault(r.node, []).append(r)
    rows = []
    for node in sorted(per_node, key=lambda n: -len(per_node[n])):
        recs = per_node[node]
        last = recs[-1]
        final = last.get("new", -1)
        rows.append([
            node,
            len(recs),
            f"{recs[0].time:.1f}s",
            f"{last.time:.1f}s",
            final if final != -1 else "(none)",
        ])
    print(table(
        ["node", "changes", "first", "last", "final parent"],
        rows,
        title=f"parent changes ({len(changes)} total across {len(per_node)} nodes)",
    ))
    return 0


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------
def cmd_convergence(args: argparse.Namespace) -> int:
    tracer = _load(args.trace)
    samples = tracer.filter(kind="etx", node=args.node)
    samples = [r for r in samples if r.get("est") is not None and r.get("true") is not None]
    if not samples:
        print("(no usable `etx` records — instrument with etx_sample_s=...)")
        return 0

    if args.node is not None:
        series: Dict[str, List[Tuple[float, Optional[float]]]] = {
            "estimated": [(r.time, float(r.get("est"))) for r in samples],
            "true": [(r.time, float(r.get("true"))) for r in samples],
        }
        print(timeseries(series, title=f"node {args.node}: parent-link ETX",
                         ylabel="ETX"))
        print()

    # Per-node final sample vs ground truth.
    final: Dict[int, object] = {}
    for r in samples:
        final[r.node] = r
    rows = []
    errors = []
    for node in sorted(final):
        r = final[node]
        est = float(r.get("est"))
        truth = float(r.get("true"))
        err = est - truth
        errors.append(err)
        rows.append([node, r.get("neighbor"), f"{est:.2f}", f"{truth:.2f}", f"{err:+.2f}"])
    print(table(
        ["node", "parent", "est ETX", "true ETX", "error"],
        rows,
        title=f"final parent-link estimate vs ground truth ({len(samples)} samples)",
    ))
    print()
    print("estimation error (est − true) across all samples:")
    all_errors = [float(r.get("est")) - float(r.get("true")) for r in samples]
    # A near-dead link has a huge (but finite) true ETX; clip the histogram
    # to the 2nd–98th percentile so one outlier doesn't flatten every bin.
    ranked = sorted(all_errors)
    lo = ranked[int(0.02 * (len(ranked) - 1))]
    hi = ranked[int(0.98 * (len(ranked) - 1))]
    shown = [e for e in all_errors if lo <= e <= hi]
    print(_hist(shown))
    outliers = len(all_errors) - len(shown)
    if outliers:
        print(f"  ({outliers} outlier sample(s) outside [{lo:.2f}, {hi:.2f}] not shown)")
    mean_abs = sum(abs(e) for e in all_errors) / len(all_errors)
    med_abs = sorted(abs(e) for e in all_errors)[len(all_errors) // 2]
    print(
        f"mean |error| = {mean_abs:.3f} ETX, median |error| = {med_abs:.3f} ETX "
        f"over {len(all_errors)} samples"
    )
    return 0


# ---------------------------------------------------------------------------
# journey
# ---------------------------------------------------------------------------
def cmd_journey(args: argparse.Namespace) -> int:
    from repro.obs.journey import build_journeys, summarize_journeys

    tracer = _load(args.trace)
    journeys = build_journeys(tracer.records)
    if args.origin is not None:
        journeys = {k: j for k, j in journeys.items() if j.origin == args.origin}
    if args.seq is not None:
        journeys = {k: j for k, j in journeys.items() if j.seq == args.seq}
    if not journeys:
        print("(no packet journeys — the trace has no pkt-*/deliver records; "
              "export one from an instrumented run)")
        return 0
    selected = sorted(
        (j for j in journeys.values() if args.state is None or j.state == args.state),
        key=lambda j: (
            j.t_origin if j.t_origin is not None else math.inf, j.origin, j.seq
        ),
    )
    for journey in selected[: args.limit]:
        print(journey.render())
        print()
    if len(selected) > args.limit:
        print(f"... {len(selected) - args.limit} more journey(s) (raise --limit)\n")

    summary = summarize_journeys(journeys.values())
    print(
        f"{summary.total} packet(s): {summary.delivered} delivered "
        f"({summary.complete} with complete span chains), "
        f"{summary.dropped} dropped, {summary.in_flight} in flight"
    )
    if summary.total_attempts:
        print(
            f"link attempts: {summary.total_attempts} "
            f"({summary.total_retries} retries)"
        )
    if summary.latencies_s:
        print(f"mean delivery latency: {summary.mean_latency_s * 1000:.0f}ms "
              f"over {len(summary.latencies_s)} packet(s)")
    if summary.hop_counts:
        print(f"mean delivered hop count: {summary.mean_hops:.2f}")
    if tracer.dropped:
        print(f"WARNING: {tracer.dropped} trace records were dropped at "
              f"capacity; journeys may be incomplete")
    return 0


# ---------------------------------------------------------------------------
# tail
# ---------------------------------------------------------------------------
def _render_stream_record(record: Dict[str, Any]) -> str:
    kind = record.get("rec", "?")
    t = record.get("t")
    ts = f"{t:10.3f}s" if isinstance(t, (int, float)) else "         -"
    run = record.get("run")
    prefix = f"{ts}  {kind:<11}"
    if run:
        prefix += f" [{run}]"
    if kind == "snapshot":
        updates = record.get("updates") or {}
        full = "full, " if record.get("full") else ""
        return f"{prefix} {full}{len(updates)} key(s)"
    rest = {
        k: v for k, v in record.items() if k not in ("rec", "seq", "t", "run")
    }
    body = " ".join(f"{k}={v}" for k, v in rest.items())
    return f"{prefix} {body}".rstrip()


def cmd_tail(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.obs.stream import fold_snapshots, validate_record

    kinds: TallyCounter = TallyCounter()
    snapshots: List[Dict[str, Any]] = []
    invalid = 0
    printed = 0

    def handle(line: str) -> None:
        nonlocal invalid, printed
        line = line.strip()
        if not line:
            return
        try:
            record = json.loads(line)
        except ValueError as exc:
            invalid += 1
            print(f"INVALID (bad JSON: {exc}): {line[:120]}", file=sys.stderr)
            return
        if args.check:
            for error in validate_record(record):
                invalid += 1
                print(f"INVALID: {error}", file=sys.stderr)
        kinds[str(record.get("rec"))] += 1
        if record.get("rec") == "snapshot":
            snapshots.append(record)
        if printed < args.limit:
            printed += 1
            print(_render_stream_record(record), flush=args.follow)

    with open(args.stream) as fh:
        for line in fh:
            handle(line)
        try:
            while args.follow:
                line = fh.readline()
                if line:
                    handle(line)
                else:
                    time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass

    folded = fold_snapshots(snapshots)
    total = sum(kinds.values())
    parts = ", ".join(f"{k}={n}" for k, n in sorted(kinds.items()))
    print(f"\n{total} record(s) ({parts or 'none'}); "
          f"folded state: {len(folded)} metric key(s)")
    if args.check:
        if invalid:
            print(f"{invalid} invalid record(s)", file=sys.stderr)
            return 1
        print("all records valid")
    return 0


# ---------------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summary", help="whole-run overview: kinds, counter totals")
    p.add_argument("trace", nargs="+", help="JSONL trace file(s), in order")
    p.set_defaults(fn=cmd_summary)

    p = sub.add_parser("timeline", help="chronological event listing")
    p.add_argument("trace", nargs="+")
    p.add_argument("--node", type=int, default=None, help="only this node")
    p.add_argument("--kind", default=None, help="only this record kind")
    p.add_argument("--t0", type=float, default=None, help="from simulated time (s)")
    p.add_argument("--t1", type=float, default=None, help="to simulated time (s)")
    p.add_argument("--limit", type=int, default=100, help="max rows (default 100)")
    p.set_defaults(fn=cmd_timeline)

    p = sub.add_parser("flaps", help="parent-change churn per node")
    p.add_argument("trace", nargs="+")
    p.set_defaults(fn=cmd_flaps)

    p = sub.add_parser(
        "convergence", help="estimated parent-link ETX vs channel ground truth"
    )
    p.add_argument("trace", nargs="+")
    p.add_argument("--node", type=int, default=None, help="plot one node over time")
    p.set_defaults(fn=cmd_convergence)

    p = sub.add_parser(
        "journey",
        help="reconstruct causal per-packet span trees (tx → rx → … → deliver)",
    )
    p.add_argument("trace", nargs="+")
    p.add_argument("--origin", type=int, default=None, help="only packets from this node")
    p.add_argument("--seq", type=int, default=None, help="only this origin sequence number")
    p.add_argument(
        "--state",
        choices=("delivered", "dropped", "in-flight"),
        default=None,
        help="only journeys with this terminal state",
    )
    p.add_argument("--limit", type=int, default=20, help="max trees printed (default 20)")
    p.set_defaults(fn=cmd_journey)

    p = sub.add_parser(
        "tail", help="print (and optionally follow/validate) a telemetry stream"
    )
    p.add_argument("stream", help="JSONL stream file (from --live-telemetry)")
    p.add_argument(
        "-f", "--follow", action="store_true",
        help="keep reading as the file grows (Ctrl-C to stop)",
    )
    p.add_argument(
        "--interval", type=float, default=0.5,
        help="poll interval in seconds with --follow (default 0.5)",
    )
    p.add_argument("--limit", type=int, default=1000, help="max records printed")
    p.add_argument(
        "--check", action="store_true",
        help="validate every record against the stream schema; exit 1 on any "
        "invalid record",
    )
    p.set_defaults(fn=cmd_tail)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `... | head` closed the pipe; not an error
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
