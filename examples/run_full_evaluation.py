#!/usr/bin/env python3
"""Regenerate the paper's entire evaluation in one command.

Runs the paper campaign (``examples/paper.json``) through
:class:`repro.campaign.Campaign` and writes one text file per figure under
``results/``; its output backs EXPERIMENTS.md.  Points that ran before come
back from the result cache, so the fast path is to run the campaign on
several processes first, then render::

    python -m repro.campaign run examples/paper.json --workers 4
    python examples/run_full_evaluation.py --out results [--json]

``--quick`` is the benchmark scale; ``--minutes``/``--seeds`` override it.
"""

import argparse
import dataclasses
import json
from pathlib import Path

from repro.campaign.queue import load_campaign_file
from repro.experiments import BENCH, run, scaled
from repro.metrics.collection_stats import json_sanitize

PAPER = Path(__file__).with_name("paper.json")


def _jsonify(value):
    """Strict-JSON view of a figure result; tuple keys (fig7's) become strings."""
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonify(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return json_sanitize(value)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--quick", action="store_true", help="benchmark scale (~2 min)")
    parser.add_argument("--minutes", type=float, default=None, help="override run length")
    parser.add_argument("--seeds", type=int, default=None, help="number of seeds")
    parser.add_argument("--json", action="store_true", help="also write <figure>.json files")
    args = parser.parse_args()

    base = dict(BENCH["base"]) if args.quick else {}
    seeds = BENCH["seeds"] if args.quick else None
    if args.minutes is not None:
        base.update(duration_s=args.minutes * 60.0, warmup_s=min(300.0, args.minutes * 12.0))
    if args.seeds is not None:
        seeds = range(1, args.seeds + 1)
    spec = scaled(load_campaign_file(PAPER), base=base, seeds=seeds)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    figures = run(spec, progress=True)
    for name, figure in figures.items():
        path = out / f"{name}.txt"
        path.write_text(figure.render() + "\n")
        print(f"{name:<10} -> {path}")
        if args.json:
            text = json.dumps(_jsonify(figure), indent=2, allow_nan=False)
            (out / f"{name}.json").write_text(text + "\n")
    print("done.")


if __name__ == "__main__":
    main()
