"""Causal packet-journey reconstruction from trace records."""

from repro.obs.journey import build_journeys, summarize_journeys
from repro.sim.network import CollectionNetwork, SimConfig
from repro.sim.rng import RngManager
from repro.sim.trace import instrument_network, load_trace, select
from repro.topology.generators import grid


def _traced_run(protocol="4b", rows=4, cols=4):
    topo = grid(rows, cols, spacing_m=6.0, rng=RngManager(5).stream("t"),
                jitter_m=0.5)
    config = SimConfig(protocol=protocol, seed=2, duration_s=150.0, warmup_s=60.0)
    net = CollectionNetwork(topo, config)
    tracer = instrument_network(net, max_records=None)
    result = net.run()
    return net, tracer, result


# ---------------------------------------------------------------------------
# Synthetic traces: exact span semantics
# ---------------------------------------------------------------------------
def _rec(kind, t, node, **fields):
    return dict(kind=kind, t=t, node=node, **fields)


def test_two_hop_journey_span_tree():
    records = [
        _rec("pkt-orig", 1.0, 5, seq=0),
        _rec("pkt-tx", 1.01, 5, origin=5, seq=0, to=3, acked=False),
        _rec("pkt-tx", 1.05, 5, origin=5, seq=0, to=3, acked=True),
        _rec("pkt-rx", 1.06, 3, origin=5, seq=0, src=5, thl=1, outcome="forward"),
        _rec("pkt-tx", 1.10, 3, origin=5, seq=0, to=0, acked=True),
        _rec("pkt-rx", 1.11, 0, origin=5, seq=0, src=3, thl=2, outcome="deliver"),
        _rec("deliver", 1.11, 5, seq=0, hops=2),
    ]
    journeys = build_journeys(records)
    journey = journeys[(5, 0)]
    assert journey.state == "delivered"
    assert journey.is_complete()
    assert journey.path() == [5, 3, 0]
    assert journey.delivered_at == 0 and journey.delivered_hops == 2
    assert journey.latency_s == journeys[(5, 0)].t_delivered - 1.0

    origin = journey.hops[5]
    assert origin.outcome == "origin"
    assert origin.attempts == 2 and origin.acked == 1 and origin.retries == 1
    assert origin.next_hop == 3
    assert [c.node for c in origin.children] == [3]
    relay = journey.hops[3]
    assert relay.outcome == "forward" and relay.attempts == 1
    assert [c.node for c in relay.children] == [0]

    text = journey.render()
    assert text.splitlines()[0].startswith("packet (5, 0): delivered")
    assert "node 5" in text and "tx=2 (retries=1)" in text


def test_duplicate_rx_counts_without_clobbering_outcome():
    records = [
        _rec("pkt-rx", 1.0, 3, origin=5, seq=1, src=5, thl=1, outcome="forward"),
        _rec("pkt-rx", 1.2, 3, origin=5, seq=1, src=5, thl=1, outcome="dup"),
    ]
    span = build_journeys(records)[(5, 1)].hops[3]
    assert span.outcome == "forward"
    assert span.duplicates == 1


def test_drop_marks_journey_dropped():
    records = [
        _rec("pkt-orig", 1.0, 5, seq=2),
        _rec("pkt-tx", 1.1, 5, origin=5, seq=2, to=3, acked=False),
        _rec("drop", 2.0, 5, origin=5, seq=2, reason="retries"),
    ]
    journey = build_journeys(records)[(5, 2)]
    assert journey.state == "dropped"
    assert journey.drop_reason == "retries" and journey.drop_node == 5
    assert journey.hops[5].outcome == "drop-retries"
    assert not journey.is_complete()
    assert "(retries at node 5)" in journey.render()


def test_broken_chain_yields_empty_path():
    # The relay's rx record is missing, so origin → root cannot be walked.
    records = [
        _rec("pkt-orig", 1.0, 5, seq=3),
        _rec("pkt-rx", 1.2, 0, origin=5, seq=3, src=3, thl=2, outcome="deliver"),
    ]
    journey = build_journeys(records)[(5, 3)]
    assert journey.delivered and not journey.is_complete()
    assert journey.path() == []
    assert "node 0" in journey.render()  # orphan spans still render


# ---------------------------------------------------------------------------
# Real traced runs: the acceptance contract
# ---------------------------------------------------------------------------
def test_every_delivered_packet_has_complete_span_chain():
    net, tracer, result = _traced_run()
    assert tracer.log.dropped == 0  # unbounded trace: nothing decimated
    journeys = build_journeys(tracer.records)
    delivered = [j for j in journeys.values() if j.delivered]
    assert len(delivered) == result.unique_delivered
    for journey in delivered:
        assert journey.is_complete(), journey.render()
        path = journey.path()
        assert path[0] == journey.origin and path[-1] == journey.delivered_at
        assert journey.delivered_hops == len(path) - 1
        assert journey.latency_s is not None and journey.latency_s >= 0.0

    summary = summarize_journeys(journeys.values())
    assert summary.delivered == summary.complete == result.unique_delivered
    assert summary.total_attempts >= summary.delivered
    assert summary.total_retries <= summary.total_attempts


def test_journeys_survive_trace_dicts_round_trip(tmp_path):
    net, tracer, result = _traced_run()
    path = tmp_path / "trace.jsonl"
    tracer.to_jsonl(path)
    in_memory = build_journeys(tracer.records)
    from_file = build_journeys(load_trace(path)[0])
    assert set(in_memory) == set(from_file)
    for key, journey in in_memory.items():
        other = from_file[key]
        assert journey.state == other.state
        assert journey.path() == other.path()
        assert journey.total_attempts == other.total_attempts


def test_mhlqi_packets_get_complete_journeys():
    # MultiHopLQI emits the same parent-change and pkt-* records as CTP, so
    # its parent switches are all traced and its packets rebuild end to end.
    net, tracer, result = _traced_run(protocol="mhlqi")
    switches = sum(node.protocol.routing.stats.parent_switches for node in net.nodes.values())
    assert switches > 0
    acquired = [r for r in select(tracer.records, kind="parent-change") if r["new"] != -1]
    assert len(acquired) == switches
    journeys = build_journeys(tracer.records)
    delivered = [j for j in journeys.values() if j.delivered]
    assert len(delivered) == result.unique_delivered > 0
    for journey in delivered:
        assert journey.is_complete(), journey.render()
