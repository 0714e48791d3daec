"""Unit tests for the flat cross-layer metrics dict."""

import dataclasses
import re
from types import SimpleNamespace

import pytest

from repro.core.estimator import EstimatorStats
from repro.link.mac import MacStats
from repro.net.ctp.forwarding import ForwardingStats
from repro.net.ctp.routing import RoutingStats
from repro.net.multihoplqi import MhlqiStats
from repro.obs import network_metrics
from repro.obs.metrics import numeric_fields
from repro.sim.network import CollectionNetwork, SimConfig
from repro.sim.rng import RngManager
from repro.topology.generators import grid


def _stub_network(stats_by_node):
    """The attributes ``network_metrics`` reads, with fixed stats objects."""
    nodes = {
        nid: SimpleNamespace(stats_objects=lambda objs=objs: list(objs))
        for nid, objs in stats_by_node.items()
    }
    return SimpleNamespace(
        nodes=nodes,
        medium=SimpleNamespace(transmissions=5, deliveries=4, collisions=1, white_bits_set=2),
        engine=SimpleNamespace(events_run=99, pending=3, now=12.5),
        fault_injector=None,
        invariant_checker=None,
    )


def _run(protocol="4b", nodes=3):
    topo = grid(nodes, nodes, spacing_m=6.0, rng=RngManager(5).stream("t"), jitter_m=0.5)
    config = SimConfig(protocol=protocol, seed=2, duration_s=150.0, warmup_s=60.0)
    net = CollectionNetwork(topo, config)
    net.run()
    return net


# ---------------------------------------------------------------------------
# Key format, order and value types
# ---------------------------------------------------------------------------
def test_flat_keys_sort_by_name_then_node_label_string():
    metrics = network_metrics(_stub_network({
        nid: [EstimatorStats(beacons_sent=nid)] for nid in (10, 2, 1)
    }))
    assert metrics["est.estimator.beacons_sent{node=2}"] == 2
    assert metrics["sim.engine.pending"] == 3
    # Node labels compare as strings, and a label sorts before any label
    # it is a prefix of: 1, 10, 2.  Sorting the flat key strings instead
    # would put "…{node=10}" before "…{node=1}".
    labeled = [k for k in metrics if k.startswith("est.estimator.beacons_sent{")]
    assert labeled == [f"est.estimator.beacons_sent{{node={n}}}" for n in ("1", "10", "2")]
    keys = list(metrics)
    name_then_label = lambda k: (k.partition("{")[0], k.partition("{")[2].rstrip("}"))
    assert keys == sorted(keys, key=name_then_label)
    assert type(metrics["sim.engine.now_s"]) is float
    assert type(metrics["sim.engine.events_run"]) is int


def test_name_convention_enforced():
    """Every key follows ``layer.component.event``, plus a node label."""
    convention = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+(\{node=\d+\})?$")
    for per_node in (True, False):
        for key in network_metrics(_run(), per_node=per_node):
            assert convention.match(key), key


def test_register_dataclass_counters():
    stats = EstimatorStats(beacons_sent=3, rejected_no_white=2)
    snap = network_metrics(_stub_network({4: [stats]}))
    assert snap["est.estimator.beacons_sent{node=4}"] == 3
    assert snap["est.estimator.rejected_no_white{node=4}"] == 2
    # Every counter field of the dataclass is present.
    for f in dataclasses.fields(EstimatorStats):
        assert f"est.estimator.{f.name}{{node=4}}" in snap


def test_all_stats_dataclasses_register_under_their_layer():
    expected = {
        EstimatorStats: "est.estimator",
        MacStats: "link.mac",
        RoutingStats: "net.routing",
        ForwardingStats: "net.forwarding",
        MhlqiStats: "net.mhlqi",
    }
    for cls, prefix in expected.items():
        keys = [k for k in network_metrics(_stub_network({0: [cls()]})) if k.endswith("{node=0}")]
        assert keys, cls.__name__
        assert all(k.startswith(prefix + ".") for k in keys), cls.__name__
        assert len(keys) == len(numeric_fields(cls())), cls.__name__


def test_aggregate_sums_across_labels():
    net = _run()
    per_node = network_metrics(net)
    totals = network_metrics(net, per_node=False)
    for key, total in totals.items():
        labeled = [v for k, v in per_node.items() if k.startswith(key + "{node=")]
        if labeled:
            assert total == sum(labeled), key
        else:
            assert per_node[key] == total, key


# ---------------------------------------------------------------------------
# Real networks
# ---------------------------------------------------------------------------
def test_network_metrics_bridge():
    net = _run()
    snap = network_metrics(net)
    tx_unicast = sum(v for k, v in snap.items() if k.startswith("link.mac.tx_unicast{"))
    assert tx_unicast == sum(n.mac.stats.tx_unicast for n in net.nodes.values())
    beacons = sum(v for k, v in snap.items() if k.startswith("est.estimator.beacons_received{"))
    assert beacons == sum(
        n.estimator.stats.beacons_received for n in net.nodes.values() if n.estimator
    )
    assert snap["phy.medium.transmissions"] == net.medium.transmissions
    assert snap["sim.engine.events_run"] == net.engine.events_run
    # Folded totals (per_node=False) are exact.
    assert network_metrics(net, per_node=False)["link.mac.tx_unicast"] == tx_unicast


_ESTIMATOR_STACK = ("link.mac", "est.estimator", "net.routing", "net.forwarding")


@pytest.mark.parametrize(
    "protocol, layers",
    [("4b", _ESTIMATOR_STACK), ("ctp", _ESTIMATOR_STACK), ("mhlqi", ("link.mac", "net.mhlqi"))],
)
def test_every_enumerated_stats_field_reaches_the_registry(protocol, layers):
    """Every numeric field of every stats object a node enumerates reaches
    the metrics, for every stack."""
    net = _run(protocol)
    snap = network_metrics(net)
    for nid, node in net.nodes.items():
        stats_objects = node.stats_objects()
        assert tuple(s.METRICS_PREFIX for s in stats_objects) == layers
        for stats in stats_objects:
            for name, value in numeric_fields(stats).items():
                key = f"{stats.METRICS_PREFIX}.{name}{{node={nid}}}"
                assert snap[key] == value, key


def test_collect_metrics_config_flag():
    topo = grid(2, 2, spacing_m=6.0, rng=RngManager(5).stream("t"), jitter_m=0.5)
    config = SimConfig(protocol="4b", seed=2, duration_s=150.0, warmup_s=60.0,
                       collect_metrics=True)
    net = CollectionNetwork(topo, config)
    result = net.run()
    assert result.metrics
    assert any(k.startswith("est.estimator.") for k in result.metrics)
    assert result.metrics == network_metrics(net)
