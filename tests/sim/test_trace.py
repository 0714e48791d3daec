"""Unit and integration tests for the tracing subsystem."""

import json

import pytest

from repro.obs.stream import JsonlStreamSink
from repro.sim.network import CollectionNetwork, SimConfig
from repro.sim.rng import RngManager
from repro.sim.trace import (
    NETWORK_NODE,
    Tracer,
    TraceRecord,
    instrument_network,
    true_link_etx,
)
from repro.topology.generators import grid
from repro.workloads.collection import WorkloadConfig


# ---------------------------------------------------------------------------
# Tracer core
# ---------------------------------------------------------------------------
def test_emit_and_filter():
    tracer = Tracer()
    tracer.emit(1.0, "tx", 3, "to 1 ack=1")
    tracer.emit(2.0, "tx", 4, "to 1 ack=0")
    tracer.emit(3.0, "boot", 3, "")
    assert tracer.count(kind="tx") == 2
    assert tracer.count(node=3) == 2
    assert tracer.count(kind="tx", node=3) == 1
    assert tracer.count(t0=1.5) == 2


def test_kind_whitelist():
    tracer = Tracer(kinds={"boot"})
    tracer.emit(1.0, "tx", 3, "")
    tracer.emit(2.0, "boot", 3, "")
    assert tracer.count() == 1


def test_capacity_bound():
    tracer = Tracer(max_records=2)
    for i in range(5):
        tracer.emit(float(i), "tx", 0, "")
    assert len(tracer.records) == 2
    assert tracer.dropped == 3
    assert "dropped" in tracer.render()


def test_filtered_and_dropped_counted_separately():
    tracer = Tracer(max_records=2, kinds={"tx"})
    for i in range(5):
        tracer.emit(float(i), "tx", 0)
    for i in range(4):
        tracer.emit(float(i), "boot", 0)
    assert tracer.dropped == 3  # capacity losses only
    assert tracer.filtered == 4  # whitelist exclusions only
    out = tracer.render()
    assert "dropped" in out and "excluded" in out


def test_tail_mode_keeps_most_recent():
    tracer = Tracer(max_records=3, keep="tail")
    for i in range(10):
        tracer.emit(float(i), "tx", 0, seq=i)
    assert [r.get("seq") for r in tracer.records] == [7, 8, 9]
    assert tracer.dropped == 7


def test_keep_validation():
    with pytest.raises(ValueError):
        Tracer(keep="middle")


def test_typed_fields_and_reserved_names():
    tracer = Tracer()
    tracer.emit(1.0, "tx", 3, dest=1, ack=1, backoffs=2)
    record = tracer.records[0]
    assert record.get("dest") == 1
    assert record.get("ack") == 1
    assert "dest=1" in record.detail
    with pytest.raises(ValueError):
        tracer.emit(1.0, "tx", 3, t=5.0)  # 't' is a reserved envelope key


def test_jsonl_round_trip(tmp_path):
    tracer = Tracer(max_records=3)
    tracer.emit(1.0, "tx", 3, dest=1, ack=0)
    tracer.emit(2.0, "rx", 4, src=3, snr=7.5, white=1)
    for i in range(5):
        tracer.emit(3.0, "boot", i)
    path = tmp_path / "trace.jsonl"
    assert tracer.to_jsonl(path) == 3
    back = Tracer.from_jsonl(path)
    assert [r.to_dict() for r in back.records] == [r.to_dict() for r in tracer.records]
    assert back.dropped == tracer.dropped == 4
    # The file is valid JSONL with a _meta footer.
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[-1]["kind"] == "_meta"
    assert lines[-1]["dropped"] == 4


def test_streaming_sink_keeps_nothing_in_memory(tmp_path):
    path = tmp_path / "stream.jsonl"
    sink = JsonlStreamSink(path, append=False)
    tracer = Tracer(max_records=0, sink=sink)
    for i in range(10):
        tracer.emit(float(i), "tx", 0, seq=i)
    tracer.close()
    assert len(tracer.records) == 0
    assert tracer.dropped == 0
    back = Tracer.from_jsonl(path)
    assert len(back.records) == 10
    assert [r.get("seq") for r in back.records] == list(range(10))


def test_render_format():
    tracer = Tracer()
    tracer.emit(1.5, "parent-change", 7, "None -> 0")
    out = tracer.render()
    assert "node 7" in out
    assert "parent-change" in out
    assert "None -> 0" in out


def test_render_empty():
    assert Tracer().render() == "(no records)"


# ---------------------------------------------------------------------------
# Network instrumentation
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_run():
    topo = grid(3, 3, spacing_m=6.0, rng=RngManager(5).stream("t"), jitter_m=0.5)
    config = SimConfig(
        protocol="4b",
        seed=2,
        duration_s=240.0,
        warmup_s=80.0,
        workload=WorkloadConfig(send_interval_s=5.0),
    )
    net = CollectionNetwork(topo, config)
    tracer = instrument_network(net)
    result = net.run()
    return net, tracer, result


def test_instrumentation_captures_boots(traced_run):
    net, tracer, _ = traced_run
    assert tracer.count(kind="boot") == len(net.nodes)


def test_instrumentation_captures_parent_changes(traced_run):
    _, tracer, _ = traced_run
    changes = tracer.filter(kind="parent-change")
    assert changes, "at least the initial parent acquisitions must appear"
    for r in changes:
        assert isinstance(r.get("old"), int) and isinstance(r.get("new"), int)
        assert r.get("new") != r.get("old")


def test_instrumentation_captures_deliveries(traced_run):
    _, tracer, result = traced_run
    assert tracer.count(kind="deliver") == result.unique_delivered + result.duplicates_at_root


def test_instrumentation_tx_matches_mac_counters(traced_run):
    net, tracer, _ = traced_run
    mac_total = sum(n.mac.stats.tx_unicast for n in net.nodes.values())
    assert tracer.count(kind="tx") == mac_total


def test_instrumentation_captures_phy_receptions(traced_run):
    _, tracer, _ = traced_run
    rx = tracer.filter(kind="rx")
    assert rx
    for r in rx[:50]:
        assert isinstance(r.get("src"), int)
        assert r.get("white") in (0, 1)
        assert isinstance(r.get("snr"), float)


def test_stats_records_match_in_process_counters(traced_run):
    """The acceptance criterion: end-of-run `stats` records reproduce the
    live stats dataclasses exactly, four-bit counters included."""
    net, tracer, _ = traced_run
    est_recs = [r for r in tracer.filter(kind="stats") if r.get("layer") == "est.estimator"]
    assert len(est_recs) == len(net.nodes)
    import dataclasses
    from repro.core.estimator import EstimatorStats

    for field in dataclasses.fields(EstimatorStats):
        trace_total = sum(r.get(field.name, 0) for r in est_recs)
        live_total = sum(
            getattr(n.estimator.stats, field.name)
            for n in net.nodes.values()
            if n.estimator is not None
        )
        assert trace_total == live_total, field.name
    mac_recs = [r for r in tracer.filter(kind="stats") if r.get("layer") == "link.mac"]
    assert sum(r.get("tx_unicast", 0) for r in mac_recs) == sum(
        n.mac.stats.tx_unicast for n in net.nodes.values()
    )
    medium_recs = [
        r for r in tracer.filter(kind="stats", node=NETWORK_NODE)
        if r.get("layer") == "phy.medium"
    ]
    assert len(medium_recs) == 1
    assert medium_recs[0].get("transmissions") == net.medium.transmissions


def test_stats_records_survive_jsonl_round_trip(traced_run, tmp_path):
    net, tracer, _ = traced_run
    path = tmp_path / "run.jsonl"
    tracer.to_jsonl(path)
    back = Tracer.from_jsonl(path)
    orig = [r for r in tracer.filter(kind="stats") if r.get("layer") == "est.estimator"]
    loaded = [r for r in back.filter(kind="stats") if r.get("layer") == "est.estimator"]
    assert [r.to_dict() for r in loaded] == [r.to_dict() for r in orig]


def test_true_link_etx_ground_truth(traced_run):
    net, _, _ = traced_run
    nodes = sorted(net.nodes)
    etx = true_link_etx(net, nodes[1], nodes[0])
    assert etx >= 1.0


def test_etx_sampling_emits_records():
    topo = grid(3, 3, spacing_m=6.0, rng=RngManager(5).stream("t"), jitter_m=0.5)
    config = SimConfig(
        protocol="4b", seed=2, duration_s=240.0, warmup_s=80.0,
        workload=WorkloadConfig(send_interval_s=5.0),
    )
    net = CollectionNetwork(topo, config)
    tracer = instrument_network(net, etx_sample_s=60.0)
    net.run()
    samples = tracer.filter(kind="etx")
    assert samples
    for r in samples:
        assert isinstance(r.get("neighbor"), int)
        est = r.get("est")
        assert est is None or est >= 1.0


def test_instrumentation_does_not_change_results():
    # A traced run's medium records overheard frames itself while an
    # untraced one skips them (addressed delivery), so the two take
    # different delivery branches: every counter must still agree.
    topo = grid(3, 3, spacing_m=6.0, rng=RngManager(5).stream("t"), jitter_m=0.5)

    def run(medium: str, protocol: str, traced: bool):
        config = SimConfig(
            protocol=protocol, seed=2, duration_s=240.0, warmup_s=80.0,
            medium=medium, workload=WorkloadConfig(send_interval_s=5.0),
        )
        net = CollectionNetwork(topo, config)
        tracer = instrument_network(net) if traced else None
        result = net.run()
        m = net.medium
        counters = {
            "transmissions": m.transmissions,
            "deliveries": m.deliveries,
            "collisions": m.collisions,
            "white_bits_set": m.white_bits_set,
        }
        for node in net.nodes.values():
            for name, value in vars(node.mac.stats).items():
                counters["mac." + name] = counters.get("mac." + name, 0) + value
        return result, counters, tracer

    for medium in ("exact", "fast"):
        for protocol in ("4b", "ctp"):
            plain, plain_counters, _ = run(medium, protocol, False)
            traced, traced_counters, tracer = run(medium, protocol, True)
            case = (medium, protocol)
            assert plain.cost == traced.cost, case
            assert plain.unique_delivered == traced.unique_delivered, case
            assert plain_counters == traced_counters, case
            assert plain_counters["deliveries"] > plain_counters["mac.frames_delivered_up"], case
            assert tracer.count(kind="rx") > 0, case
