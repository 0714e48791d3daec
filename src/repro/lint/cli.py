"""``python -m repro.lint`` — check the tree against the static contracts.

Examples::

    python -m repro.lint                       # lint src/repro with all rules
    python -m repro.lint src/repro/phy         # one subtree
    python -m repro.lint --list-rules

Every rule runs on every file.  The only way to accept a finding is an
inline ``# lint: disable=<rule>`` comment on the flagged line.

Exit status: 0 when there are no findings, 1 when there are, 2 on
usage/parse errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.lint.core import find_repo_root, lint_paths
from repro.lint.rules import RULES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based determinism / layering / units / hygiene linter "
        "with a whole-program pass (RNG provenance, backend parity, "
        "worker state)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: <repo>/src/repro)",
    )
    parser.add_argument("--list-rules", action="store_true", help="list rules and exit")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.id}  {rule.name:<15} {rule.description}")
        return 0

    repo_root = find_repo_root(Path.cwd())
    paths = list(args.paths)
    if not paths:
        if repo_root is None:
            parser.error("no paths given and no repo root (pyproject.toml) found")
        paths = [repo_root / "src" / "repro"]
    missing = [p for p in paths if not p.exists()]
    if missing:
        parser.error(f"no such path(s): {', '.join(map(str, missing))}")

    ctx = lint_paths(paths, RULES, repo_root)
    if ctx.errors:
        for error in ctx.errors:
            print(f"error: {error}", file=sys.stderr)
        return 2

    for finding in ctx.findings:
        print(finding.render())
    summary = (
        f"{ctx.checked_files} file(s) checked, {len(ctx.findings)} finding(s), "
        f"{ctx.inline_suppressed} inline-suppressed"
    )
    print(f"\n{summary}" if ctx.findings else summary)
    return 1 if ctx.findings else 0
