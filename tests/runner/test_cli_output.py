"""Stream-discipline tests for the sweep CLI: `--json -` must own stdout."""

import json

import pytest

from repro.runner.__main__ import main

ARGS = [
    "--protocols", "4b",
    "--powers", "0",
    "--seeds", "1",
    "--nodes", "8",
    "--minutes", "2.5",
    "--warmup", "1",
    "--no-cache",
]


def test_json_stdout_is_pure(capsys):
    assert main(ARGS + ["--json", "-", "--profile-events"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)  # nothing but JSON on stdout
    assert payload["cells"]
    assert payload["runner"]["executed"] == 1
    assert payload["runner"]["profile"]["events"] > 0
    assert payload["cells"][0]["profile"]["runs"] == 1
    # Humans still get their rows — on stderr.
    assert "cost=" in captured.err
    assert "[runner]" in captured.err
    assert "[profile]" in captured.err


def test_quiet_suppresses_everything_but_json(capsys):
    assert main(ARGS + ["--quiet", "--json", "-"]) == 0
    captured = capsys.readouterr()
    json.loads(captured.out)
    assert "cost=" not in captured.err
    assert "[runner]" not in captured.err


def test_default_rows_on_stdout(capsys):
    assert main(ARGS) == 0
    captured = capsys.readouterr()
    assert "cost=" in captured.out  # human mode keeps rows on stdout
    assert "[runner]" in captured.err  # but stats always go to stderr


def test_json_file_keeps_stdout_clean(tmp_path, capsys):
    out_path = tmp_path / "sweep.json"
    assert main(ARGS + ["--quiet", "--json", str(out_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(out_path.read_text())
    assert payload["cells"]


def test_mobility_flag_runs_and_rejects_unknown(tmp_path, capsys):
    assert main(ARGS + ["--quiet", "--mobility", "pedestrian", "--medium", "fast"]) == 0
    capsys.readouterr()
    # A MobilityConfig JSON file works too (content, not path, is digested).
    config = tmp_path / "mob.json"
    config.write_text(
        '{"speed_min_mps": 1.0, "speed_max_mps": 2.0, "pause_mean_s": 5.0,'
        ' "update_period_s": 2.0, "fraction_mobile": 0.5}'
    )
    assert main(ARGS + ["--quiet", "--mobility", str(config), "--medium", "fast"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(ARGS + ["--mobility", "warp-drive"])
    assert "--mobility" in capsys.readouterr().err


def test_zero_seeds_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--seeds", "0", "--no-cache"])
    assert exc.value.code == 2
    assert "--seeds must be at least 1" in capsys.readouterr().err
