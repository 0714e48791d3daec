"""Engine mechanics: module naming, inline suppression."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint import lint_paths, rules_by_name
from repro.lint.core import module_name_for


def lint_file(tmp_path: Path, source: str, rule: str = "float-equality"):
    target = tmp_path / "snippet.py"
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths([target], [rules_by_name()[rule]])


# ----------------------------------------------------------------------
# module naming: fixtures staged under a repro/ dir get package policy
# ----------------------------------------------------------------------
def test_module_name_for():
    assert module_name_for(Path("src/repro/net/ctp/routing.py")) == "repro.net.ctp.routing"
    assert module_name_for(Path("tests/lint/fixtures/layering/repro/phy/x.py")) == "repro.phy.x"
    assert module_name_for(Path("src/repro/net/__init__.py")) == "repro.net"
    assert module_name_for(Path("somewhere/standalone.py")) == "standalone"


# ----------------------------------------------------------------------
# inline suppressions
# ----------------------------------------------------------------------
def test_inline_disable_named_rule(tmp_path):
    ctx = lint_file(tmp_path, "def f(x):\n    return x == 0.3  # lint: disable=float-equality\n")
    assert ctx.findings == [] and ctx.inline_suppressed == 1


def test_inline_disable_all_rules(tmp_path):
    ctx = lint_file(tmp_path, "def f(x):\n    return x == 0.3  # lint: disable\n")
    assert ctx.findings == [] and ctx.inline_suppressed == 1


def test_inline_disable_by_rule_id(tmp_path):
    ctx = lint_file(tmp_path, "def f(x):\n    return x == 0.3  # lint: disable=H002\n")
    assert ctx.findings == [] and ctx.inline_suppressed == 1


def test_inline_disable_other_rule_does_not_suppress(tmp_path):
    ctx = lint_file(tmp_path, "def f(x):\n    return x == 0.3  # lint: disable=determinism\n")
    assert len(ctx.findings) == 1 and ctx.inline_suppressed == 0
