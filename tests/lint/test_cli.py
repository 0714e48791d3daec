"""CLI behavior: exit codes, --json round-trip, baseline workflow."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
BAD_FLOAT = FIXTURES / "hygiene" / "float_equality_bad.py"
GOOD_FLOAT = FIXTURES / "hygiene" / "float_equality_good.py"


def run_cli(*argv: str) -> int:
    return main(list(argv))


def test_clean_file_exits_zero(tmp_path, capsys):
    rc = run_cli(str(GOOD_FLOAT), "--select", "float-equality", "--baseline", str(tmp_path / "b.json"))
    out = capsys.readouterr().out
    assert rc == 0
    assert "1 file(s) checked, 0 new finding(s)" in out


def test_findings_exit_one_and_render(tmp_path, capsys):
    rc = run_cli(str(BAD_FLOAT), "--select", "float-equality", "--baseline", str(tmp_path / "b.json"))
    out = capsys.readouterr().out
    assert rc == 1
    assert "H002 [float-equality]" in out
    assert "4 new finding(s)" in out


def test_json_round_trip(tmp_path, capsys):
    rc = run_cli(
        str(BAD_FLOAT),
        "--select",
        "float-equality",
        "--json",
        "--baseline",
        str(tmp_path / "b.json"),
    )
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["exit_status"] == 1
    assert payload["checked_files"] == 1
    assert payload["rules"] == ["H002"]
    assert payload["baselined"] == []
    assert len(payload["findings"]) == 4
    for finding in payload["findings"]:
        assert set(finding) == {"rule", "name", "path", "line", "col", "message", "fingerprint"}
        assert finding["rule"] == "H002"
        assert finding["fingerprint"].startswith("H002::")


def test_write_baseline_then_clean(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert run_cli(str(BAD_FLOAT), "--select", "float-equality", "--baseline", str(baseline), "--write-baseline") == 0
    capsys.readouterr()
    assert baseline.is_file()

    rc = run_cli(str(BAD_FLOAT), "--select", "float-equality", "--baseline", str(baseline), "--json")
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["exit_status"] == 0
    assert payload["findings"] == []
    assert len(payload["baselined"]) == 4


def test_written_baseline_reviews_like_code(tmp_path):
    baseline = tmp_path / "baseline.json"
    run_cli(str(BAD_FLOAT), "--select", "float-equality", "--baseline", str(baseline), "--write-baseline")
    data = json.loads(baseline.read_text(encoding="utf-8"))
    assert data["version"] == 1
    for entry in data["findings"]:
        assert set(entry) == {"fingerprint", "count", "rule", "name", "path", "message"}
        assert entry["count"] >= 1


def test_ignore_disables_rule(tmp_path, capsys):
    rc = run_cli(str(BAD_FLOAT), "--ignore", "float-equality,unused-import", "--baseline", str(tmp_path / "b.json"))
    assert rc == 0
    assert "0 new finding(s)" in capsys.readouterr().out


def test_unknown_rule_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--select", "no-such-rule")
    assert exc.value.code == 2
    assert "unknown rule" in capsys.readouterr().err


def test_missing_path_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("definitely/not/a/path.py")
    assert exc.value.code == 2


def test_unparsable_file_is_internal_error(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n", encoding="utf-8")
    rc = run_cli(str(broken), "--baseline", str(tmp_path / "b.json"))
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_baseline_update_flow_with_project_fingerprints(tmp_path, capsys):
    """Project-rule findings baseline exactly like file-rule findings."""
    bad = FIXTURES / "worker_state" / "bad"
    baseline = tmp_path / "baseline.json"
    assert run_cli(str(bad), "--select", "worker-state", "--baseline", str(baseline)) == 1
    capsys.readouterr()
    assert run_cli(str(bad), "--select", "worker-state", "--baseline", str(baseline), "--write-baseline") == 0
    capsys.readouterr()
    rc = run_cli(str(bad), "--select", "worker-state", "--baseline", str(baseline), "--json")
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["findings"] == [] and len(payload["baselined"]) == 2
    assert all(f["rule"] == "W001" for f in payload["baselined"])


def test_list_rules(capsys):
    assert run_cli("--list-rules") == 0
    out = capsys.readouterr().out
    for rule_id in (
        "D001", "L001", "U001", "H001", "H002", "H003",
        "R001", "P001", "W001",
    ):
        assert rule_id in out
