"""The committed tree passes its own gates: lint clean, mypy strict subset."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import RULES, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repo_tree_is_lint_clean():
    """src/repro has no findings that are not suppressed inline.

    This is the same check the CI lint job runs; keeping it in the suite
    means a violation fails fast locally, with the offending file named.
    """
    ctx = lint_paths([REPO_ROOT / "src" / "repro"], RULES, REPO_ROOT)
    assert not ctx.errors
    assert ctx.findings == [], "lint findings:\n" + "\n".join(f.render() for f in ctx.findings)


def test_mypy_strict_subset():
    """The mypy gate (CI `lint` job) passes on core/, sim/, phy/.

    Skips where mypy is not installed — the gate is enforced in CI; this
    test exists so environments with mypy catch regressions before push.
    """
    pytest.importorskip("mypy")
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "mypy.ini"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
