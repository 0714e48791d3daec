"""``python -m repro.lint`` — check the tree against the static contracts.

Examples::

    python -m repro.lint                       # lint src/repro with all rules
    python -m repro.lint src/repro/phy         # one subtree
    python -m repro.lint --select determinism,layering
    python -m repro.lint --ignore unused-import
    python -m repro.lint --json                # machine-readable output
    python -m repro.lint --fix                 # delete unused imports, re-lint
    python -m repro.lint --write-baseline      # accept current findings
    python -m repro.lint --list-rules

Exit status: 0 when every finding is baselined (or none exist), 1 when new
findings are present, 2 on usage/parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.baseline import Baseline, load_baseline, write_baseline
from repro.lint.core import find_repo_root, iter_python_files, lint_paths
from repro.lint.fix import fix_unused_imports
from repro.lint.rules import RULES, default_rules

DEFAULT_BASELINE = "lint-baseline.json"

#: Default per-file facts cache for the project pass (under the repo root).
DEFAULT_INDEX_CACHE = Path(".repro-cache") / "lint-index.json"


def _split_csv(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    return [part.strip() for part in value.split(",") if part.strip()]


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
    parser.add_argument("--json", action="store_true", help="emit JSON to stdout")
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids/names to enable (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule ids/names to disable",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help=f"baseline file (default: <repo>/{DEFAULT_BASELINE} when present)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--fix",
        action="store_true",
        help="delete unused imports (H003) in place, then lint the result",
    )
    parser.add_argument(
        "--index-cache",
        type=Path,
        default=None,
        metavar="FILE",
        help="per-file facts cache for the project pass "
        f"(default: <repo>/{DEFAULT_INDEX_CACHE.as_posix()})",
    )
    parser.add_argument(
        "--no-index-cache",
        action="store_true",
        help="extract facts fresh; neither read nor write the cache",
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

    try:
        rules = default_rules(_split_csv(args.select), _split_csv(args.ignore))
    except KeyError as exc:
        parser.error(f"unknown rule {exc.args[0]!r} (see --list-rules)")

    repo_root = find_repo_root(Path.cwd())
    paths = list(args.paths)
    if not paths:
        if repo_root is None:
            parser.error("no paths given and no repo root (pyproject.toml) found")
        paths = [repo_root / "src" / "repro"]
    missing = [p for p in paths if not p.exists()]
    if missing:
        parser.error(f"no such path(s): {', '.join(map(str, missing))}")

    index_cache: Optional[Path] = None
    if not args.no_index_cache:
        if args.index_cache is not None:
            index_cache = args.index_cache
        elif repo_root is not None:
            index_cache = repo_root / DEFAULT_INDEX_CACHE

    fixed_files = 0
    if args.fix:
        for path in iter_python_files(paths):
            try:
                if fix_unused_imports(path, repo_root):
                    fixed_files += 1
            except (SyntaxError, UnicodeDecodeError) as exc:
                print(f"error: {path}: {exc}", file=sys.stderr)
                return 2

    baseline_path = args.baseline
    if baseline_path is None and repo_root is not None:
        baseline_path = repo_root / DEFAULT_BASELINE

    ctx = lint_paths(paths, rules, repo_root, index_cache=index_cache)
    if ctx.errors:
        for error in ctx.errors:
            print(f"error: {error}", file=sys.stderr)
        return 2

    if args.write_baseline:
        if baseline_path is None:
            parser.error("--write-baseline needs --baseline FILE outside a repo")
        entries = write_baseline(baseline_path, ctx.findings)
        print(
            f"wrote {entries} baseline entr{'y' if entries == 1 else 'ies'} "
            f"({len(ctx.findings)} finding(s)) to {baseline_path}"
        )
        return 0

    baseline = load_baseline(baseline_path) if baseline_path is not None else Baseline()
    new, baselined = baseline.partition(ctx.findings)

    if args.json:
        payload = {
            "checked_files": ctx.checked_files,
            "rules": [rule.id for rule in rules],
            "findings": [f.to_json() for f in new],
            "baselined": [f.to_json() for f in baselined],
            "inline_suppressed": ctx.inline_suppressed,
            "fixed_files": fixed_files,
            "index_cache": {
                "hits": ctx.index_cache_hits,
                "misses": ctx.index_cache_misses,
            },
            "exit_status": 1 if new else 0,
        }
        print(json.dumps(payload, indent=2))
    else:
        for finding in new:
            print(finding.render())
        summary = (
            f"{ctx.checked_files} file(s) checked, {len(new)} new finding(s), "
            f"{len(baselined)} baselined, {ctx.inline_suppressed} inline-suppressed"
        )
        if args.fix:
            summary += f", {fixed_files} file(s) fixed"
        print(summary if not new else f"\n{summary}")
    return 1 if new else 0
