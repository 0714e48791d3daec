"""CLI behavior: exit codes, rendered findings, the two-flag surface."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
BAD_FLOAT = FIXTURES / "hygiene" / "float_equality_bad.py"
GOOD_FLOAT = FIXTURES / "hygiene" / "float_equality_good.py"


def run_cli(*argv: str) -> int:
    return main(list(argv))


def test_clean_file_exits_zero(capsys):
    rc = run_cli(str(GOOD_FLOAT))
    out = capsys.readouterr().out
    assert rc == 0
    assert "1 file(s) checked, 0 finding(s), 0 inline-suppressed" in out


def test_findings_exit_one_and_render(capsys):
    rc = run_cli(str(BAD_FLOAT))
    out = capsys.readouterr().out
    assert rc == 1
    rendered = [line for line in out.splitlines() if "H002 [float-equality]" in line]
    assert len(rendered) == 4
    assert all("float_equality_bad.py:" in line for line in rendered)
    assert "1 file(s) checked, 4 finding(s)" in out


def test_inline_suppression_is_the_only_way_to_accept(tmp_path, capsys):
    target = tmp_path / "snippet.py"
    target.write_text("def f(x):\n    return x == 0.3  # lint: disable=float-equality\n")
    assert run_cli(str(target)) == 0
    assert "0 finding(s), 1 inline-suppressed" in capsys.readouterr().out


#: Flags the gate does not take: one way to run it, no escape hatch.
REMOVED_FLAGS = {
    "select": ["--select", "determinism"],
    "ignore": ["--ignore", "determinism"],
    "json": ["--json"],
    "fix": ["--fix"],
    "baseline": ["--baseline", "b.json"],
    "write-baseline": ["--write-baseline"],
    "index-cache": ["--index-cache", "c.json"],
    "no-index-cache": ["--no-index-cache"],
}


@pytest.mark.parametrize("flag", REMOVED_FLAGS.values(), ids=REMOVED_FLAGS.keys())
def test_removed_flags_are_usage_errors(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(str(GOOD_FLOAT), *flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_missing_path_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("definitely/not/a/path.py")
    assert exc.value.code == 2


def test_unparsable_file_is_internal_error(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n", encoding="utf-8")
    rc = run_cli(str(broken))
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_list_rules(capsys):
    assert run_cli("--list-rules") == 0
    out = capsys.readouterr().out
    for rule_id in (
        "D001", "L001", "U001", "H001", "H002", "H003",
        "R001", "P001", "W001",
    ):
        assert rule_id in out
