"""CLI contract: run/status/resume subcommands, SIGTERM resumability."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

GRID_SPEC = {
    "campaign": "cli-grid",
    "kind": "synthetic",
    "mode": "grid",
    "base": {"optimum": 0.5},
    "axes": {"x0": [0.0, 0.5, 1.0], "x1": [0.0, 1.0], "x2": [2.0, 3.0]},
    "objective": "objective",
}

# Accuracy points at this duration take ~0.1s each: slow enough that a
# SIGTERM lands mid-sweep, fast enough for CI.
SLOW_SPEC = {
    "campaign": "cli-slow",
    "kind": "accuracy",
    "mode": "grid",
    "base": {"scenario": "steady", "duration_s": 3600.0, "warmup_s": 60.0},
    "axes": {"prr": [0.5, 0.6, 0.7, 0.8, 0.9, 0.95], "ku": [1, 3, 5, 12]},
    "objective": "mre",
}


def _write_spec(tmp_path: Path, data: dict, name: str = "spec.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def _cli(args, tmp_path: Path, **kwargs):
    base = [
        sys.executable, "-m", "repro.campaign", *args,
        "--state-dir", str(tmp_path / "state"),
        "--cache-dir", str(tmp_path / "cache"),
    ]
    return subprocess.run(
        base, env=_env(), cwd=str(REPO_ROOT), capture_output=True, text=True,
        timeout=180, **kwargs,
    )


def _summary_path(tmp_path: Path) -> Path:
    (digest_dir,) = list((tmp_path / "state").iterdir())
    return digest_dir / "summary.json"


def test_run_writes_summary_and_out_copy(tmp_path):
    spec = _write_spec(tmp_path, GRID_SPEC)
    out = tmp_path / "copy.json"
    proc = _cli(["run", str(spec), "--out", str(out)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "12 executed, 0 cached, 0 failed" in proc.stderr
    assert "best objective" in proc.stderr
    summary = _summary_path(tmp_path)
    assert summary.read_bytes() == out.read_bytes()
    doc = json.loads(out.read_text())
    assert doc["n_points"] == 12 and doc["n_failed"] == 0
    # optimum=0.5: best grid point is (0.5, 0 or 1, 2) -> 0 + 0.25 + 2.25.
    assert doc["best"]["score"] == pytest.approx(2.5)


def test_stop_after_exits_3_and_resume_completes_byte_identical(tmp_path):
    spec = _write_spec(tmp_path, GRID_SPEC)
    ref_dir = tmp_path / "ref"
    ref_dir.mkdir()
    ref_spec = _write_spec(ref_dir, GRID_SPEC)
    ref = _cli(["run", str(ref_spec)], ref_dir)
    assert ref.returncode == 0, ref.stderr

    first = _cli(["run", str(spec), "--stop-after", "5"], tmp_path)
    assert first.returncode == 3, first.stderr
    assert "interrupted after 5 executed" in first.stderr
    assert "resume with" in first.stderr
    assert not _summary_path(tmp_path).exists()

    resumed = _cli(["resume", str(spec)], tmp_path)
    assert resumed.returncode == 0, resumed.stderr
    assert "7 executed, 5 cached" in resumed.stderr
    assert _summary_path(tmp_path).read_bytes() == _summary_path(ref_dir).read_bytes()


def test_sigterm_midway_then_resume_byte_identical(tmp_path):
    spec = _write_spec(tmp_path, SLOW_SPEC)
    ref_dir = tmp_path / "ref"
    ref_dir.mkdir()
    ref_spec = _write_spec(ref_dir, SLOW_SPEC)
    ref = _cli(["run", str(ref_spec)], ref_dir)
    assert ref.returncode == 0, ref.stderr

    telemetry = tmp_path / "stream.jsonl"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.campaign", "run", str(spec),
            "--state-dir", str(tmp_path / "state"),
            "--cache-dir", str(tmp_path / "cache"),
            "--telemetry", str(telemetry),
        ],
        env=_env(), cwd=str(REPO_ROOT),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    # Wait until a few points have actually executed, then pull the plug.
    deadline = time.time() + 60
    while time.time() < deadline:
        if telemetry.exists() and sum(
            1 for line in telemetry.read_text().splitlines() if '"run-result"' in line
        ) >= 3:
            break
        time.sleep(0.05)
    proc.send_signal(signal.SIGTERM)
    _out, err = proc.communicate(timeout=120)
    if proc.returncode == 0:  # lost the race: the sweep finished first
        pytest.skip("campaign completed before SIGTERM landed")
    assert proc.returncode == 3, err
    assert "interrupted after" in err

    resumed = _cli(["resume", str(spec)], tmp_path)
    assert resumed.returncode == 0, resumed.stderr
    assert "cached" in resumed.stderr
    assert _summary_path(tmp_path).read_bytes() == _summary_path(ref_dir).read_bytes()


def test_status_reports_progress_without_executing(tmp_path):
    spec = _write_spec(tmp_path, GRID_SPEC)
    before = _cli(["status", str(spec)], tmp_path)
    assert before.returncode == 0, before.stderr
    doc = json.loads(before.stdout)
    assert doc["planned_points"] == 12 and doc["cached_points"] == 0
    assert doc["summary_written"] is False

    interrupted = _cli(["run", str(spec), "--stop-after", "4"], tmp_path)
    assert interrupted.returncode == 3
    after = json.loads(_cli(["status", str(spec)], tmp_path).stdout)
    assert after["cached_points"] == 4
    assert after["interrupted"] is True


def test_run_drives_an_optimize_spec(tmp_path):
    spec = _write_spec(
        tmp_path,
        {
            "campaign": "cli-tune",
            "kind": "synthetic",
            "mode": "optimize",
            "base": {"optimum": 0.25},
            "ranges": {"x0": {"lo": -2.0, "hi": 2.0}},
            "objective": "objective",
            "budget": 12,
            "batch": 4,
            "seed": 3,
        },
    )
    proc = _cli(["run", str(spec)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "12 executed, 0 cached, 0 failed" in proc.stderr
    assert "best objective" in proc.stderr
    doc = json.loads(_summary_path(tmp_path).read_text())
    assert doc["mode"] == "optimize" and doc["n_points"] == 12
    assert [h["evaluated"] for h in doc["history"]] == [4, 4, 4]
    assert abs(doc["best"]["params"]["x0"] - 0.25) < 1.0


def test_bad_spec_file_is_a_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    proc = _cli(["run", str(bad)], tmp_path)
    assert proc.returncode == 1
    assert "error:" in proc.stderr


# ----------------------------------------------------------------------
# The sweep CLI's output contract, in process: stdout, the report, exit
# codes.  Collection points at this size take well under a second.
# ----------------------------------------------------------------------
def _collection_spec(**base) -> dict:
    return {
        "campaign": "cli-collection",
        "kind": "collection",
        "mode": "grid",
        "base": dict(
            {"profile": "mirage", "n_nodes": 8, "duration_s": 150.0, "warmup_s": 60.0,
             "protocol": "4b"},
            **base,
        ),
        "axes": {"seed": [1]},
    }


def _main(args, tmp_path: Path) -> int:
    from repro.campaign.cli import main

    return main([
        *args, "--state-dir", str(tmp_path / "state"), "--cache-dir", str(tmp_path / "cache"),
    ])


def test_out_dash_writes_only_the_summary_json(tmp_path, capsys):
    spec = _write_spec(tmp_path, _collection_spec())
    assert _main(["run", str(spec), "--out", "-"], tmp_path) == 0
    captured = capsys.readouterr()
    assert captured.out.encode() == _summary_path(tmp_path).read_bytes()
    assert json.loads(captured.out)["n_points"] == 1
    assert "1 executed, 0 cached, 0 failed" in captured.err


def test_telemetry_log_is_closed_after_run_and_interruption(tmp_path, monkeypatch):
    from repro.obs.stream import RecordLog, read_stream

    opened = []
    original_init = RecordLog.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        opened.append(self)

    monkeypatch.setattr(RecordLog, "__init__", recording_init)
    spec = _write_spec(tmp_path, GRID_SPEC)
    stream = tmp_path / "live.jsonl"
    assert _main(["run", str(spec), "--telemetry", str(stream), "--stop-after", "2"], tmp_path) == 3
    assert _main(["resume", str(spec), "--telemetry", str(stream)], tmp_path) == 0
    assert len(opened) == 2 and all(log.closed for log in opened)
    kinds = [r["rec"] for r in read_stream(stream)]
    assert kinds.count("campaign-end") == 2


def test_report_goes_to_stderr(tmp_path, capsys):
    spec = _write_spec(tmp_path, GRID_SPEC)
    assert _main(["run", str(spec)], tmp_path) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "[campaign] cli-grid: 12 executed" in captured.err


def test_out_file_keeps_stdout_clean(tmp_path, capsys):
    spec = _write_spec(tmp_path, GRID_SPEC)
    out = tmp_path / "out" / "summary.json"
    assert _main(["run", str(spec), "--out", str(out)], tmp_path) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert out.read_bytes() == _summary_path(tmp_path).read_bytes()


def test_quiet_silences_the_report(tmp_path, capsys):
    spec = _write_spec(tmp_path, _collection_spec(profile_events=True))
    out = tmp_path / "out" / "summary.json"
    assert _main(["run", str(spec), "--quiet", "--out", str(out)], tmp_path) == 0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == ""
    assert out.read_bytes() == _summary_path(tmp_path).read_bytes()


def test_profile_events_prints_the_profile_table_cold_and_warm(tmp_path, capsys):
    spec = _write_spec(tmp_path, _collection_spec(profile_events=True))
    tables = []
    for _pass in ("cold", "warm"):
        assert _main(["run", str(spec)], tmp_path) == 0
        err = capsys.readouterr().err
        (table,) = [line for line in err.splitlines() if line.startswith("[profile]")]
        assert "events over 1 run(s)" in table
        tables.append(table.split(",")[0])
    # The warm pass serves the point from the cache and still reports it.
    assert "0 executed, 1 cached" in err
    assert tables[0] == tables[1]


def test_no_profile_table_without_profile_events(tmp_path, capsys):
    spec = _write_spec(tmp_path, _collection_spec())
    assert _main(["run", str(spec)], tmp_path) == 0
    assert "[profile]" not in capsys.readouterr().err


def test_mobility_preset_and_inline_object_run_on_fast_medium(tmp_path, capsys):
    inline = {
        "speed_min_mps": 1.0, "speed_max_mps": 2.0, "pause_mean_s": 5.0,
        "update_period_s": 2.0, "fraction_mobile": 0.5,
    }
    spec_doc = _collection_spec(medium="fast")
    spec_doc["axes"]["mobility"] = ["pedestrian", inline]
    spec = _write_spec(tmp_path, spec_doc)
    assert _main(["run", str(spec), "--out", "-"], tmp_path) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_failed"] == 0
    assert [p["params"]["mobility"] for p in doc["points"]] == ["pedestrian", inline]
    assert all(p["summary"]["offered"] > 0 for p in doc["points"])


def test_failed_point_writes_summary_and_exits_nonzero(tmp_path, capsys):
    from repro.campaign.cli import EXIT_FAILED

    spec_doc = _collection_spec()
    spec_doc["axes"]["protocol"] = ["4b", "no-such-protocol"]
    spec = _write_spec(tmp_path, spec_doc)
    assert _main(["run", str(spec)], tmp_path) == EXIT_FAILED
    err = capsys.readouterr().err
    assert "1 executed, 0 cached, 1 failed" in err
    assert "[campaign] failed" in err and "no-such-protocol" in err
    doc = json.loads(_summary_path(tmp_path).read_text())
    assert doc["n_failed"] == 1
    assert [("error" in p) for p in doc["points"]] == [False, True]


def test_empty_axis_is_a_spec_error(tmp_path, capsys):
    spec_doc = _collection_spec()
    spec_doc["axes"]["seed"] = []
    spec = _write_spec(tmp_path, spec_doc)
    assert _main(["run", str(spec)], tmp_path) == 1
    assert "has no values" in capsys.readouterr().err
    assert not (tmp_path / "state").exists()


def test_malformed_campaign_files_are_spec_errors_naming_the_key(tmp_path, capsys):
    tune = {
        "campaign": "bad", "kind": "synthetic", "mode": "optimize",
        "ranges": {"x0": {"lo": -1.0, "hi": 1.0}}, "objective": "objective",
    }
    sample = dict(tune, mode="random", samples=4)
    no_kind = {k: v for k, v in tune.items() if k != "kind"}
    cases = [
        (no_kind, "'kind'"),
        (dict(tune, ranges={"x0": {"hi": 1.0}}), "'lo'"),
        (dict(tune, ranges={"x0": {"lo": -1.0}}), "'hi'"),
        (dict(tune, minimize="false"), "'minimize'"),
        (dict(sample, samples=2.7), "'samples'"),
        (dict(tune, seed=1.9), "'seed'"),
        (dict(tune, budget=10.5), "'budget'"),
        (dict(tune, batch=2.5), "'batch'"),
        (dict(tune, top_k=1.5), "'top_k'"),
        (dict(tune, ranges={"k": {"lo": 0.2, "hi": 0.8, "type": "int"}}), "'k'"),
        (dict(tune, ranges=[]), "'ranges'"),
        (dict(tune, base=5), "'base'"),
        ({"campaign": "bad", "kind": "synthetic", "axes": {"x0": 1.0}}, "'x0'"),
    ]
    for i, (doc, key) in enumerate(cases):
        spec = _write_spec(tmp_path, doc, name=f"bad{i}.json")
        assert _main(["run", str(spec)], tmp_path) == 1, doc
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err, (doc, err)
    assert not (tmp_path / "state").exists()
