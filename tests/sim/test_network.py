"""Unit tests for the network builder."""

import math
import random

import pytest

from repro.core.estimator import EstimatorConfig
from repro.net.ctp.protocol import CtpProtocol
from repro.net.multihoplqi import MultiHopLqi
from repro.sim.network import PROTOCOLS, CollectionNetwork, SimConfig
from repro.sim.rng import derive_seed
from repro.topology.generators import grid
from repro.topology.testbeds import scaled_profile, MIRAGE


def tiny_topology():
    return grid(3, 2, spacing_m=4.0)


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        SimConfig(protocol="nonsense")


def test_duration_must_exceed_warmup():
    """The run window fails cleanly: a finite positive duration and a
    finite warmup in [0, duration), NaN rejected everywhere."""
    for duration, warmup in (
        (100.0, 200.0),
        (100.0, 100.0),
        (math.inf, 120.0),
        (math.nan, 120.0),
        (0.0, 0.0),
        (-10.0, -20.0),
        (600.0, -1.0),
        (600.0, math.nan),
        (600.0, -math.inf),
    ):
        with pytest.raises(ValueError):
            SimConfig(duration_s=duration, warmup_s=warmup)
    assert SimConfig(duration_s=10.0, warmup_s=0.0, drain_s=0.0).warmup_s == 0.0


def test_drain_and_tree_sample_period_fail_at_construction():
    """A campaign file can set the drain.  A drain of the whole run would
    stop the sources at or before t = 0 (the engine rejects a negative time
    deep in the build).  The tree-sample period is a fixed 30 s, which no
    config can set to a loop that never ends."""
    for duration, drain in (
        (1.0, 30.0),  # the default drain outlasts a short run
        (600.0, 600.0),
        (600.0, -1.0),
        (600.0, math.nan),
        (600.0, math.inf),
    ):
        with pytest.raises(ValueError, match="drain_s"):
            SimConfig(duration_s=duration, warmup_s=0.0, drain_s=drain)
    assert SimConfig(duration_s=600.0, drain_s=0.0).drain_s == 0.0


def test_non_finite_tx_power_rejected():
    """NaN power ran to delivery 0 and cost inf; an infinite one ran too."""
    for power in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="tx_power_dbm"):
            SimConfig(tx_power_dbm=power)
    assert SimConfig(tx_power_dbm=-25.0).tx_power_dbm == -25.0


def test_extra_sink_missing_from_topology_rejected():
    """An extra sink the topology lacks used to run as a one-sink network."""
    config = SimConfig(duration_s=200.0, warmup_s=50.0, extra_sinks=(999,))
    with pytest.raises(ValueError, match="999"):
        CollectionNetwork(tiny_topology(), config)
    net = CollectionNetwork(tiny_topology(), SimConfig(duration_s=200.0, warmup_s=50.0, extra_sinks=(5,)))
    assert net.roots == (0, 5)


def test_builds_one_node_per_position():
    net = CollectionNetwork(tiny_topology(), SimConfig(duration_s=200.0, warmup_s=50.0))
    assert len(net.nodes) == 6


def test_sink_has_no_source_and_is_root():
    net = CollectionNetwork(tiny_topology(), SimConfig(duration_s=200.0, warmup_s=50.0))
    sink = net.nodes[0]
    assert sink.source is None
    assert sink.is_root
    assert sink.boot_time == 0.0


def test_ctp_nodes_have_estimators():
    net = CollectionNetwork(tiny_topology(), SimConfig(protocol="4b", duration_s=200.0, warmup_s=50.0))
    for node in net.nodes.values():
        assert isinstance(node.protocol, CtpProtocol)
        assert node.estimator is not None


def test_mhlqi_nodes_have_no_estimator():
    net = CollectionNetwork(
        tiny_topology(), SimConfig(protocol="mhlqi", duration_s=200.0, warmup_s=50.0)
    )
    for node in net.nodes.values():
        assert isinstance(node.protocol, MultiHopLqi)
        assert node.estimator is None


def test_boot_times_staggered():
    net = CollectionNetwork(tiny_topology(), SimConfig(duration_s=200.0, warmup_s=50.0))
    boots = [n.boot_time for n in net.nodes.values() if not n.is_root]
    assert all(0.0 <= b <= 30.0 for b in boots)
    assert len(set(boots)) > 1


@pytest.mark.parametrize("medium", ["exact", "fast"])
def test_boot_times_are_one_shot_draws_of_the_boot_stream(medium):
    profile = scaled_profile(MIRAGE, 12)
    config = SimConfig(seed=11, duration_s=200.0, warmup_s=50.0, medium=medium)
    net = CollectionNetwork(profile.topology(seed=1), config, profile=profile)
    stagger = config.workload.boot_stagger_s
    for nid, node in net.nodes.items():
        fresh = random.Random(derive_seed(net.rng.master_seed, "boot", nid))
        assert node.boot_time == (0.0 if node.is_root else fresh.uniform(0.0, stagger))
    # One draw per node: no generator is kept for it.
    assert not any(key[0] == "boot" for key in net.rng._streams)


def test_estimator_config_override():
    config = SimConfig(
        protocol="4b",
        duration_s=200.0,
        warmup_s=50.0,
        estimator_config=EstimatorConfig(table_size=3),
    )
    net = CollectionNetwork(tiny_topology(), config)
    assert net.nodes[1].estimator.table.capacity == 3


def test_interferers_built_from_profile():
    profile = scaled_profile(MIRAGE, 10)
    topo = profile.topology(seed=1)
    net = CollectionNetwork(topo, SimConfig(duration_s=200.0, warmup_s=50.0), profile=profile)
    assert len(net.interferers) == len(profile.interferers)


def test_interferers_disabled_by_config():
    profile = scaled_profile(MIRAGE, 10)
    topo = profile.topology(seed=1)
    net = CollectionNetwork(
        topo,
        SimConfig(duration_s=200.0, warmup_s=50.0, with_interferers=False),
        profile=profile,
    )
    assert net.interferers == []


def test_channel_overrides_applied():
    net = CollectionNetwork(
        tiny_topology(),
        SimConfig(duration_s=200.0, warmup_s=50.0),
        channel_overrides=dict(shadowing_sigma_db=0.0, temporal_sigma_db=0.0),
    )
    assert net.channel.shadowing_sigma_db == 0.0


def test_depth_map_follows_parents():
    net = CollectionNetwork(tiny_topology(), SimConfig(duration_s=200.0, warmup_s=50.0))
    # Force parents by hand: 0 ← 1 ← 2, others routeless.
    net.nodes[1].protocol.routing.route_info[0] = None
    net.nodes[1].protocol.routing.parent = 0
    net.nodes[2].protocol.routing.parent = 1
    depths = net.depth_map()
    assert depths[0] == 0
    assert depths[1] == 1
    assert depths[2] == 2
    assert depths[3] is None


def test_depth_map_detects_cycles():
    net = CollectionNetwork(tiny_topology(), SimConfig(duration_s=200.0, warmup_s=50.0))
    net.nodes[1].protocol.routing.parent = 2
    net.nodes[2].protocol.routing.parent = 1
    depths = net.depth_map()
    assert depths[1] is None
    assert depths[2] is None


def test_hardware_variation_applied():
    net = CollectionNetwork(tiny_topology(), SimConfig(duration_s=200.0, warmup_s=50.0))
    floors = {n.radio.noise_floor_dbm for n in net.nodes.values()}
    assert len(floors) > 1


def test_protocol_registry_complete():
    assert set(PROTOCOLS) == {
        "ctp",
        "ctp-unconstrained",
        "ctp-unidir",
        "ctp-white",
        "4b",
        "mhlqi",
        "geo",
    }


def test_unknown_medium_rejected():
    with pytest.raises(ValueError, match="unknown medium"):
        SimConfig(protocol="4b", medium="warp-drive")


def test_fast_medium_backend_selected():
    from repro.sim.medium_fast import FastRadioMedium

    net = CollectionNetwork(tiny_topology(), SimConfig(protocol="4b", medium="fast"))
    assert isinstance(net.medium, FastRadioMedium)


def test_default_medium_is_exact():
    from repro.sim.medium import RadioMedium
    from repro.sim.medium_fast import FastRadioMedium

    net = CollectionNetwork(tiny_topology(), SimConfig(protocol="4b"))
    assert type(net.medium) is RadioMedium
    assert not isinstance(net.medium, FastRadioMedium)
