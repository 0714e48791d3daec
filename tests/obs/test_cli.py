"""Tests for the offline trace-analysis CLI (python -m repro.obs)."""

import json

import pytest

from repro.obs.cli import main
from repro.sim.network import CollectionNetwork, SimConfig
from repro.sim.rng import RngManager
from repro.sim.trace import instrument_network, select
from repro.topology.generators import grid
from repro.workloads.collection import WorkloadConfig


@pytest.fixture(scope="module")
def exported_trace(tmp_path_factory):
    topo = grid(3, 3, spacing_m=6.0, rng=RngManager(5).stream("t"), jitter_m=0.5)
    config = SimConfig(
        protocol="4b", seed=2, duration_s=240.0, warmup_s=80.0,
        workload=WorkloadConfig(send_interval_s=5.0),
    )
    net = CollectionNetwork(topo, config)
    tracer = instrument_network(net, etx_sample_s=60.0)
    net.run()
    path = tmp_path_factory.mktemp("trace") / "run.jsonl"
    tracer.to_jsonl(path)
    return str(path), net, tracer


def test_summary_reports_kinds_and_counters(exported_trace, capsys):
    path, net, tracer = exported_trace
    assert main(["summary", path]) == 0
    out = capsys.readouterr().out
    assert "records by kind" in out
    assert "rx" in out and "tx" in out
    assert "est.estimator.rejected_no_white" in out
    assert "link.mac.tx_unicast" in out


def test_summary_totals_match_in_process_stats(exported_trace, capsys):
    """Acceptance: CLI summary four-bit counter totals equal the live
    EstimatorStats sums from the run that produced the trace."""
    path, net, _ = exported_trace
    main(["summary", path])
    out = capsys.readouterr().out
    import dataclasses
    from repro.core.estimator import EstimatorStats

    reported = {}
    for line in out.splitlines():
        if line.startswith("est.estimator."):
            name, value = line.rsplit(None, 1)
            reported[name.strip()] = int(value)
    for f in dataclasses.fields(EstimatorStats):
        live = sum(
            getattr(n.estimator.stats, f.name)
            for n in net.nodes.values()
            if n.estimator is not None
        )
        assert reported[f"est.estimator.{f.name}"] == live, f.name


def test_timeline_filters(exported_trace, capsys):
    path, _, tracer = exported_trace
    assert main(["timeline", path, "--kind", "parent-change", "--limit", "5"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if "parent-change" in l]
    assert 0 < len(lines) <= 5
    node = select(tracer.records, kind="parent-change")[0]["node"]
    main(["timeline", path, "--node", str(node), "--kind", "parent-change"])
    out = capsys.readouterr().out
    assert f"node {node}" in out


def test_flaps_counts_match_trace(exported_trace, capsys):
    path, _, tracer = exported_trace
    assert main(["flaps", path]) == 0
    out = capsys.readouterr().out
    total = len(select(tracer.records, kind="parent-change"))
    assert f"({total} total" in out


def test_convergence_reports_error(exported_trace, capsys):
    path, _, _ = exported_trace
    assert main(["convergence", path]) == 0
    out = capsys.readouterr().out
    assert "true ETX" in out
    assert "mean |error|" in out


def test_convergence_single_node_timeseries(exported_trace, capsys):
    path, _, tracer = exported_trace
    node = select(tracer.records, kind="etx")[0]["node"]
    assert main(["convergence", path, "--node", str(node)]) == 0
    out = capsys.readouterr().out
    assert "estimated" in out and "true" in out


def test_journey_renders_span_trees(exported_trace, capsys):
    path, net, tracer = exported_trace
    assert main(["journey", path, "--limit", "3"]) == 0
    out = capsys.readouterr().out
    assert "packet (" in out
    assert "link attempts:" in out  # aggregate footer
    # Filtering by origin narrows the listing to that node's packets.
    origin = select(tracer.records, kind="pkt-orig")[0]["node"]
    assert main(["journey", path, "--origin", str(origin), "--limit", "2"]) == 0
    out = capsys.readouterr().out
    assert f"packet ({origin}," in out


def test_journey_state_filter(exported_trace, capsys):
    path, _, _ = exported_trace
    assert main(["journey", path, "--state", "delivered", "--limit", "1"]) == 0
    out = capsys.readouterr().out
    assert "delivered" in out


def test_tail_validates_stream(tmp_path, capsys):
    from repro.obs.stream import RecordLog

    path = tmp_path / "live.jsonl"
    log = RecordLog(path)
    log.emit({"rec": "sweep-start", "seq": 0, "t": None, "total": 1})
    log.emit({"rec": "run-result", "seq": 1, "t": None, "label": "x",
              "status": "ok"})
    log.emit({"rec": "sweep-end", "seq": 2, "t": None, "executed": 1,
              "cache_hits": 0, "failures": 0})
    log.close()
    assert main(["tail", str(path), "--check"]) == 0
    out = capsys.readouterr().out
    assert "sweep-start" in out and "all records valid" in out


def test_tail_check_flags_invalid_records(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"rec": "snapshot", "seq": 0, "t": None,
                                "full": True, "updates": {}}) + "\n")
    assert main(["tail", str(path), "--check"]) == 1
    assert "invalid" in capsys.readouterr().err


def test_cli_handles_empty_sections(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text(json.dumps({"t": 0.0, "kind": "boot", "node": 0}) + "\n")
    main(["summary", str(path)])
    assert "no `stats` records" in capsys.readouterr().out
    main(["flaps", str(path)])
    assert "no parent-change" in capsys.readouterr().out
    main(["convergence", str(path)])
    assert "no usable" in capsys.readouterr().out


def test_trace_debugging_example_feeds_the_cli(tmp_path, monkeypatch, capsys):
    """The example runs end to end and its export is readable by the CLI."""
    import runpy
    from pathlib import Path

    example = Path(__file__).resolve().parents[2] / "examples" / "trace_debugging.py"
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(example))["main"]()
    out = capsys.readouterr().out
    assert "--- cross-layer metrics (estimator excerpt) ---" in out
    assert "est.estimator.rejected_no_white = " in out
    trace = str(tmp_path / "results" / "trace.jsonl")
    assert main(["summary", trace]) == 0
    assert main(["flaps", trace]) == 0
    assert "parent changes (" in capsys.readouterr().out
