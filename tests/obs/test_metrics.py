"""Unit tests for the cross-layer metrics registry."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    _flat_key,
    parse_flat_key,
    register_dataclass_counters,
)


# ---------------------------------------------------------------------------
# Metric primitives
# ---------------------------------------------------------------------------
def test_counter_monotonic():
    c = Counter()
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_overwrites():
    g = Gauge()
    g.set(3.5)
    g.set(1.0)
    assert g.value == 1.0


def test_histogram_buckets_and_stats():
    h = Histogram(bounds=(1.0, 2.0, 5.0))
    for v in (0.5, 1.5, 1.5, 3.0, 100.0):
        h.observe(v)
    assert h.count == 5
    assert h.bucket_counts == [1, 2, 1, 1]  # ≤1, ≤2, ≤5, +inf
    assert h.vmin == 0.5 and h.vmax == 100.0
    assert h.mean == pytest.approx(106.5 / 5)


def test_histogram_merge_requires_same_bounds():
    a = Histogram(bounds=(1.0,))
    b = Histogram(bounds=(2.0,))
    with pytest.raises(ValueError):
        a.merge(b)


def test_histogram_unsorted_bounds_rejected():
    with pytest.raises(ValueError):
        Histogram(bounds=(2.0, 1.0))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
def test_get_or_create_returns_same_object():
    reg = MetricsRegistry()
    a = reg.counter("link.mac.tx_unicast", node=7)
    b = reg.counter("link.mac.tx_unicast", node=7)
    assert a is b
    c = reg.counter("link.mac.tx_unicast", node=8)
    assert c is not a


def test_name_convention_enforced():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("NoDots")
    with pytest.raises(ValueError):
        reg.counter("Upper.Case")
    reg.counter("sim.engine.events_run")  # valid


def test_type_conflicts_rejected():
    reg = MetricsRegistry()
    reg.counter("sim.engine.events_run")
    with pytest.raises(TypeError):
        reg.gauge("sim.engine.events_run")
    with pytest.raises(TypeError):
        reg.histogram("sim.engine.events_run")


def test_snapshot_flat_keys_round_trip():
    reg = MetricsRegistry()
    reg.counter("link.mac.tx_unicast", node=7, neighbor=3).inc(9)
    reg.gauge("sim.engine.pending").set(42)
    snap = reg.snapshot()
    assert snap["link.mac.tx_unicast{neighbor=3,node=7}"] == 9
    assert snap["sim.engine.pending"] == 42
    name, labels = parse_flat_key("link.mac.tx_unicast{neighbor=3,node=7}")
    assert name == "link.mac.tx_unicast"
    assert labels == {"neighbor": "3", "node": "7"}
    assert parse_flat_key("sim.engine.pending") == ("sim.engine.pending", {})


def test_flat_key_escapes_label_specials():
    # `,` `=` `}` and `\` in a label value must not corrupt the key grammar.
    key = _flat_key("sim.run.tag", [("label", "a,b=c}d\\e"), ("node", "3")])
    name, labels = parse_flat_key(key)
    assert name == "sim.run.tag"
    assert labels == {"label": "a,b=c}d\\e", "node": "3"}


_label_keys = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
_label_values = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=24
)


@given(
    labels=st.dictionaries(_label_keys, _label_values, max_size=4),
)
def test_flat_key_round_trips_any_label_value(labels):
    items = sorted(labels.items())
    key = _flat_key("layer.component.event", items)
    name, parsed = parse_flat_key(key)
    assert name == "layer.component.event"
    assert parsed == labels


def test_empty_histogram_json_safe():
    h = Histogram(bounds=(1.0, 5.0))
    payload = h.to_json_dict()
    # The vmin=+inf / vmax=-inf sentinels must not leak into JSON.
    assert payload["min"] is None and payload["max"] is None
    text = json.dumps(payload, allow_nan=False)  # raises on inf/nan
    assert "+inf" in json.loads(text)["buckets"]


def test_nonempty_histogram_json_preserves_extrema():
    h = Histogram(bounds=(1.0,))
    h.observe(0.25)
    h.observe(7.0)
    payload = h.to_json_dict()
    assert payload["min"] == 0.25 and payload["max"] == 7.0
    json.dumps(payload, allow_nan=False)


def test_snapshot_expands_histograms():
    reg = MetricsRegistry()
    h = reg.histogram("net.forwarding.latency_s", bounds=(1.0, 5.0), node=1)
    h.observe(0.5)
    h.observe(10.0)
    snap = reg.snapshot()
    assert snap["net.forwarding.latency_s_count{node=1}"] == 2
    assert snap["net.forwarding.latency_s_sum{node=1}"] == 10.5
    assert snap["net.forwarding.latency_s_bucket{le=1.0,node=1}"] == 1
    assert snap["net.forwarding.latency_s_bucket{le=+inf,node=1}"] == 1


def test_aggregate_sums_across_labels():
    reg = MetricsRegistry()
    reg.counter("link.mac.tx_unicast", node=1).inc(3)
    reg.counter("link.mac.tx_unicast", node=2).inc(4)
    assert reg.aggregate("link.mac.tx_unicast") == 7


def test_merge_semantics():
    a = MetricsRegistry()
    a.counter("link.mac.tx_unicast", node=1).inc(3)
    a.gauge("sim.engine.pending").set(5)
    a.histogram("net.forwarding.latency_s", bounds=(1.0,)).observe(0.5)
    b = MetricsRegistry()
    b.counter("link.mac.tx_unicast", node=1).inc(4)
    b.counter("link.mac.tx_broadcast", node=1).inc(1)
    b.gauge("sim.engine.pending").set(9)
    b.histogram("net.forwarding.latency_s", bounds=(1.0,)).observe(2.0)
    a.merge(b)
    snap = a.snapshot()
    assert snap["link.mac.tx_unicast{node=1}"] == 7  # counters add
    assert snap["link.mac.tx_broadcast{node=1}"] == 1
    assert snap["sim.engine.pending"] == 9  # gauges take the newer value
    assert snap["net.forwarding.latency_s_count"] == 2  # histograms pool


def test_render_filters_by_prefix():
    reg = MetricsRegistry()
    reg.counter("link.mac.tx_unicast").inc(2)
    reg.counter("net.routing.parent_switches").inc(1)
    out = reg.render("link.")
    assert "tx_unicast" in out and "parent_switches" not in out


# ---------------------------------------------------------------------------
# Dataclass bridging
# ---------------------------------------------------------------------------
def test_register_dataclass_counters():
    from repro.core.estimator import EstimatorStats

    stats = EstimatorStats(beacons_sent=3, rejected_no_white=2)
    reg = MetricsRegistry()
    register_dataclass_counters(reg, "est.estimator", stats, node=4)
    snap = reg.snapshot()
    assert snap["est.estimator.beacons_sent{node=4}"] == 3
    assert snap["est.estimator.rejected_no_white{node=4}"] == 2
    # Every counter field of the dataclass is present.
    import dataclasses

    for f in dataclasses.fields(EstimatorStats):
        assert f"est.estimator.{f.name}{{node=4}}" in snap


def test_all_stats_dataclasses_register_under_their_layer():
    from repro.core.estimator import EstimatorStats
    from repro.obs.bridge import register_stats
    from repro.link.mac import MacStats
    from repro.net.ctp.forwarding import ForwardingStats
    from repro.net.ctp.routing import RoutingStats
    from repro.net.multihoplqi import MhlqiStats

    expected = {
        EstimatorStats: "est.estimator",
        MacStats: "link.mac",
        RoutingStats: "net.routing",
        ForwardingStats: "net.forwarding",
        MhlqiStats: "net.mhlqi",
    }
    for cls, prefix in expected.items():
        reg = MetricsRegistry()
        register_stats(reg, cls(), node=0)
        keys = list(reg.snapshot())
        assert keys, cls.__name__
        assert all(k.startswith(prefix + ".") for k in keys), cls.__name__


def test_network_metrics_bridge():
    from repro.obs import network_metrics
    from repro.sim.network import CollectionNetwork, SimConfig
    from repro.sim.rng import RngManager
    from repro.topology.generators import grid

    topo = grid(3, 3, spacing_m=6.0, rng=RngManager(5).stream("t"), jitter_m=0.5)
    config = SimConfig(protocol="4b", seed=2, duration_s=150.0, warmup_s=60.0)
    net = CollectionNetwork(topo, config)
    net.run()
    reg = network_metrics(net)
    assert reg.aggregate("link.mac.tx_unicast") == sum(
        n.mac.stats.tx_unicast for n in net.nodes.values()
    )
    assert reg.aggregate("est.estimator.beacons_received") == sum(
        n.estimator.stats.beacons_received for n in net.nodes.values() if n.estimator
    )
    snap = reg.snapshot()
    assert snap["phy.medium.transmissions"] == net.medium.transmissions
    assert snap["sim.engine.events_run"] == net.engine.events_run
    # Folded totals (per_node=False) are exact.
    folded = network_metrics(net, per_node=False)
    assert folded.aggregate("link.mac.tx_unicast") == reg.aggregate("link.mac.tx_unicast")


_ESTIMATOR_STACK = ("link.mac", "est.estimator", "net.routing", "net.forwarding")


@pytest.mark.parametrize(
    "protocol, layers",
    [("4b", _ESTIMATOR_STACK), ("ctp", _ESTIMATOR_STACK), ("mhlqi", ("link.mac", "net.mhlqi"))],
)
def test_every_enumerated_stats_field_reaches_the_registry(protocol, layers):
    """The bridge registers every numeric field of every stats object a
    node enumerates, for every stack."""
    from repro.obs import network_metrics
    from repro.obs.metrics import numeric_fields
    from repro.sim.network import CollectionNetwork, SimConfig
    from repro.sim.rng import RngManager
    from repro.topology.generators import grid

    topo = grid(3, 3, spacing_m=6.0, rng=RngManager(5).stream("t"), jitter_m=0.5)
    config = SimConfig(protocol=protocol, seed=2, duration_s=150.0, warmup_s=60.0)
    net = CollectionNetwork(topo, config)
    net.run()
    snap = network_metrics(net).snapshot()
    for nid, node in net.nodes.items():
        stats_objects = node.stats_objects()
        assert tuple(s.METRICS_PREFIX for s in stats_objects) == layers
        for stats in stats_objects:
            for name, value in numeric_fields(stats).items():
                key = f"{stats.METRICS_PREFIX}.{name}{{node={nid}}}"
                assert snap[key] == value, key


def test_collect_metrics_config_flag():
    from repro.sim.network import CollectionNetwork, SimConfig
    from repro.sim.rng import RngManager
    from repro.topology.generators import grid

    topo = grid(2, 2, spacing_m=6.0, rng=RngManager(5).stream("t"), jitter_m=0.5)
    config = SimConfig(protocol="4b", seed=2, duration_s=150.0, warmup_s=60.0,
                       collect_metrics=True)
    result = CollectionNetwork(topo, config).run()
    assert result.metrics
    assert any(k.startswith("est.estimator.") for k in result.metrics)
