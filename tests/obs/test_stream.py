"""Live telemetry streaming: record schema, the record log, and the
sim-time sampler."""

import json

import pytest

from repro.campaign import Campaign, SweepSpec
from repro.faults.invariants import InvariantChecker, InvariantViolation
from repro.obs.metrics import network_metrics
from repro.obs.stream import (
    RecordLog,
    TelemetrySampler,
    encode_record,
    fold_snapshots,
    read_stream,
    validate_record,
)
from repro.runner import ExperimentRunner, ResultCache, Task
from repro.sim.network import CollectionNetwork, SimConfig
from repro.sim.rng import RngManager
from repro.topology.generators import grid


def _network(**overrides):
    topo = grid(4, 4, spacing_m=6.0, rng=RngManager(5).stream("t"), jitter_m=0.5)
    config = SimConfig(
        protocol="4b", seed=2, duration_s=150.0, warmup_s=60.0, **overrides
    )
    return CollectionNetwork(topo, config)


# ---------------------------------------------------------------------------
# Record schema
# ---------------------------------------------------------------------------
def test_validate_accepts_each_kind():
    good = [
        {"rec": "run-start", "seq": 0, "t": 0.0, "protocol": "4b", "seed": 2,
         "nodes": 16, "duration_s": 150.0, "period_s": 30.0},
        {"rec": "snapshot", "seq": 1, "t": 30.0, "full": True,
         "updates": {"sim.engine.events_run": 12}},
        {"rec": "run-end", "seq": 2, "t": 150.0, "events_run": 99, "metrics": 43},
        {"rec": "sweep-start", "seq": 0, "t": None, "total": 4},
        {"rec": "run-result", "seq": 1, "t": None, "label": "4b/s1", "status": "ok"},
        {"rec": "sweep-end", "seq": 2, "t": None, "executed": 4,
         "cache_hits": 0, "failures": 0},
    ]
    for record in good:
        assert validate_record(record) == [], record["rec"]


def test_validate_rejects_malformed_records():
    assert validate_record("not a dict")
    assert validate_record({"rec": "no-such-kind", "seq": 0, "t": 0.0})
    # Run-scoped records need a numeric t; sweep-scoped need t=null.
    assert validate_record({"rec": "snapshot", "seq": 0, "t": None,
                            "full": True, "updates": {}})
    assert validate_record({"rec": "sweep-start", "seq": 0, "t": 1.0, "total": 2})
    assert validate_record({"rec": "snapshot", "seq": -1, "t": 0.0,
                            "full": True, "updates": {}})
    assert validate_record({"rec": "snapshot", "seq": 0, "t": 0.0,
                            "full": True, "updates": {"k": "string"}})
    assert validate_record({"rec": "run-result", "seq": 0, "t": None,
                            "label": "x", "status": "maybe"})
    assert validate_record({"rec": "run-end", "seq": 0, "t": 1.0})  # missing fields


def test_encode_record_is_strict_json():
    line = encode_record({"rec": "snapshot", "seq": 0, "t": 0.0, "full": True,
                          "updates": {"a.b.c": float("inf"), "d.e.f": 1.5}})
    decoded = json.loads(line)
    assert decoded["updates"]["a.b.c"] is None  # non-finite → null
    assert decoded["updates"]["d.e.f"] == 1.5


def test_fold_snapshots_later_updates_win():
    stream = [
        {"rec": "snapshot", "seq": 0, "t": 1.0, "full": True,
         "updates": {"a.b.c": 1, "d.e.f": 2}},
        {"rec": "run-result", "seq": 9, "t": None, "label": "x", "status": "ok"},
        {"rec": "snapshot", "seq": 1, "t": 2.0, "full": False,
         "updates": {"a.b.c": 5}},
    ]
    assert fold_snapshots(stream) == {"a.b.c": 5, "d.e.f": 2}


# ---------------------------------------------------------------------------
# The record log
# ---------------------------------------------------------------------------
def test_jsonl_sink_round_trips(tmp_path):
    path = tmp_path / "sub" / "stream.jsonl"  # parent dir is created
    log = RecordLog(path)
    records = [
        {"rec": "sweep-start", "seq": 0, "t": None, "total": 1},
        {"rec": "sweep-end", "seq": 1, "t": None, "executed": 1,
         "cache_hits": 0, "failures": 0},
    ]
    for record in records:
        log.emit(record)
    # Flushed per record: readable before the log is closed.
    assert list(read_stream(path)) == records
    assert len(log.records) == 0  # a file-backed log keeps nothing in memory
    log.close()
    assert log.closed


def test_jsonl_sink_appends_across_opens(tmp_path):
    path = tmp_path / "stream.jsonl"
    for seq in range(2):
        log = RecordLog(path)
        log.emit({"rec": "sweep-start", "seq": seq, "t": None, "total": 1})
        log.close()
    assert len(list(read_stream(path))) == 2


def test_ring_sink_bounds_memory():
    log = RecordLog(limit=3, keep="tail")
    for seq in range(5):
        log.emit({"rec": "sweep-start", "seq": seq, "t": None, "total": 1})
    assert [r["seq"] for r in log.records] == [2, 3, 4]
    assert log.dropped == 2
    head = RecordLog(limit=3)
    for seq in range(5):
        head.emit({"rec": "sweep-start", "seq": seq, "t": None, "total": 1})
    assert [r["seq"] for r in head.records] == [0, 1, 2]
    assert head.dropped == 2


def test_export_replaces_the_file_and_ends_with_meta(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text("stale\n")
    log = RecordLog(limit=2)
    for i in range(3):
        log.emit({"t": float(i), "kind": "boot", "node": i})
    assert log.export(path, filtered=5) == 2
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["node"] for r in lines[:-1]] == [0, 1]
    assert lines[-1] == {"kind": "_meta", "records": 2, "dropped": 1,
                         "filtered": 5, "keep": "head"}


# ---------------------------------------------------------------------------
# The sampler on a real network
# ---------------------------------------------------------------------------
def test_sampler_stream_folds_to_exact_end_state():
    net = _network(telemetry_period_s=30.0)
    assert isinstance(net.telemetry, TelemetrySampler)
    log = net.telemetry.log
    assert log.keep == "tail" and log.limit == 1024  # no path → in-memory ring
    net.run()

    records = list(log.records)
    kinds = [r["rec"] for r in records]
    assert kinds[0] == "run-start" and kinds[-1] == "run-end"
    snapshots = [r for r in records if r["rec"] == "snapshot"]
    # Period 30 over 150 s: samples at 30..150 plus the run-end flush.
    assert len(snapshots) >= 5
    assert snapshots[0]["full"] and not any(s["full"] for s in snapshots[1:])
    assert [r["seq"] for r in records] == list(range(len(records)))
    for record in records:
        assert validate_record(record) == [], record

    # The acceptance contract: the fold equals the end-of-run metrics
    # key-for-key (sampler default is per_node=False).
    assert fold_snapshots(records) == network_metrics(net, per_node=False)

    end = records[-1]
    assert end["events_run"] == net.engine.events_run
    assert end["resources"]["cpu_s"] >= 0.0
    assert net.run_resources is not None


def test_sampler_streams_to_jsonl_path(tmp_path):
    path = tmp_path / "live.jsonl"
    net = _network(telemetry_period_s=30.0, telemetry_path=str(path))
    net.run()
    records = list(read_stream(path))
    assert fold_snapshots(records) == network_metrics(net, per_node=False)
    assert all(validate_record(r) == [] for r in records)
    assert records[0]["run"] == "4b-seed2"
    assert net.telemetry.log.closed


def test_run_that_raises_closes_its_stream(tmp_path, monkeypatch):
    def violate(self, final=False):
        raise InvariantViolation("forced")

    monkeypatch.setattr(InvariantChecker, "check_now", violate)
    path = tmp_path / "live.jsonl"
    net = _network(telemetry_period_s=30.0, telemetry_path=str(path),
                   check_invariants=True)
    with pytest.raises(InvariantViolation):
        net.run()
    assert net.telemetry.log.closed
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records and records[0]["rec"] == "run-start"


def test_run_that_raises_ends_its_stream_with_an_error(tmp_path, monkeypatch, capsys):
    from repro.obs.cli import main

    original = InvariantChecker.check_now

    def violate_late(self, final=False):
        if self.network.engine.now > 70.0:
            raise InvariantViolation("forced after t=70 s")
        original(self, final)

    monkeypatch.setattr(InvariantChecker, "check_now", violate_late)
    path = tmp_path / "live.jsonl"
    net = _network(telemetry_period_s=30.0, telemetry_path=str(path),
                   check_invariants=True)
    with pytest.raises(InvariantViolation):
        net.run()
    records = list(read_stream(path))
    assert [r["rec"] for r in records][-2:] == ["snapshot", "run-end"]
    end = records[-1]
    assert end["error"] == "InvariantViolation: forced after t=70 s"
    assert 70.0 < end["t"] < 150.0 and validate_record(end) == []
    # The checker reports the failed run instead of calling the stream valid.
    assert main(["tail", str(path), "--check"]) == 1
    err = capsys.readouterr().err
    assert "FAILED run 4b-seed2: InvariantViolation" in err and "1 failed run(s)" in err


def test_successful_run_end_carries_no_error(tmp_path):
    net = _network(telemetry_period_s=30.0)
    net.run()
    assert "error" not in net.telemetry.log.records[-1]


def test_telemetry_is_pure_observer():
    plain = _network().run()
    sampled = _network(telemetry_period_s=30.0).run()
    lhs, rhs = plain.to_json_dict(), sampled.to_json_dict()
    # Sampler events are extra engine events; everything simulated matches.
    assert lhs.pop("events_run") < rhs.pop("events_run")
    lhs.pop("resources"), rhs.pop("resources")
    assert lhs == rhs


def test_telemetry_config_validation():
    for period in (float("nan"), 0.0, -1.0):
        with pytest.raises(ValueError):
            SimConfig(protocol="4b", seed=1, duration_s=10.0, warmup_s=0.0, drain_s=0.0,
                      telemetry_period_s=period)
    # A period longer than the run is legal (it just never samples early).
    SimConfig(protocol="4b", seed=1, duration_s=10.0, warmup_s=0.0, drain_s=0.0,
              telemetry_period_s=float("inf"))
    with pytest.raises(ValueError):
        SimConfig(protocol="4b", seed=1, duration_s=10.0, warmup_s=0.0, drain_s=0.0,
                  telemetry_path="x.jsonl")  # path requires a period


# ---------------------------------------------------------------------------
# Runner sweep records
# ---------------------------------------------------------------------------
def _double(x):
    return x * 2


def test_runner_emits_sweep_scoped_records(tmp_path):
    log = RecordLog(limit=64, keep="tail")
    cache = ResultCache(tmp_path)
    tasks = [Task(_double, n, label=f"double({n})") for n in (1, 2)]

    runner = ExperimentRunner(cache=cache, telemetry=log)
    runner.run(tasks)
    kinds = [r["rec"] for r in log.records]
    assert kinds == ["sweep-start", "run-result", "run-result", "sweep-end"]
    assert all(validate_record(r) == [] for r in log.records)
    assert {r["status"] for r in log.records if r["rec"] == "run-result"} == {"ok"}
    end = log.records[-1]
    assert end["executed"] == 2 and end["cache_hits"] == 0 and end["failures"] == 0

    rerun = ExperimentRunner(cache=cache, telemetry=RecordLog(limit=64, keep="tail"))
    rerun.run(tasks)
    statuses = [r["status"] for r in rerun.telemetry.records
                if r["rec"] == "run-result"]
    assert statuses == ["cached", "cached"]


def test_campaign_session_numbers_its_records_in_one_seq(tmp_path):
    spec = SweepSpec.from_json_dict({
        "campaign": "seq", "kind": "synthetic", "mode": "grid",
        "axes": {"x0": [0.0, 1.0]},
    })
    log = RecordLog(limit=64, keep="tail")
    Campaign(spec, state_root=tmp_path / "state", cache=ResultCache(tmp_path / "cache"),
             telemetry=log).run()
    records = [r for r in log.records if r["t"] is None]
    assert [r["rec"] for r in records] == [
        "campaign-start", "sweep-start", "run-result", "run-result", "sweep-end",
        "campaign-round", "campaign-end",
    ]
    assert [r["seq"] for r in records] == list(range(len(records)))
    assert all(validate_record(r) == [] for r in records)


def _explode(x):
    raise RuntimeError(f"boom {x}")


def test_runner_emits_failed_run_results():
    log = RecordLog(limit=16, keep="tail")
    runner = ExperimentRunner(telemetry=log)
    runner.run([Task(_explode, 1, label="explode(1)")])
    failed = [r for r in log.records if r["rec"] == "run-result"]
    assert failed and failed[0]["status"] == "failed"
    assert "boom" in failed[0]["error"]
    assert log.records[-1]["failures"] == 1
