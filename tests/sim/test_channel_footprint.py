"""Per-pair channel draws keep no generator alive.

Static shadowing, the OU initial value and bimodal membership are drawn
once per pair through ``RngManager.once``; only the stateful per-pair
streams (``"ou"``, ``"bimodal-dwell"``) are interned.  The fast medium's
``finalize()`` draws every in-reach pair's shadowing in one batch, which
must equal the scalar per-pair path bit for bit, and keeps every per-pair
value in arrays: no tuple, float or dict entry per pair.  An exact-medium
run never loads numpy.
"""

import gc
import os
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro import CollectionNetwork, SimConfig, WorkloadConfig
from repro.phy.channel import ChannelModel
from repro.phy.radio import Radio
from repro.sim.engine import Engine
from repro.sim.medium_fast import FastRadioMedium
from repro.sim.rng import RngManager
from repro.sim.spatial import SpatialGrid
from repro.topology.generators import city_grid

N_NODES = 200
ONE_SHOT = {"shadow", "ou-init", "bimodal"}


def city_network(medium: str, n_nodes: int = N_NODES) -> CollectionNetwork:
    config = SimConfig(
        protocol="4b",
        seed=3,
        duration_s=30.0,
        warmup_s=10.0,
        drain_s=0.0,
        medium=medium,
        workload=WorkloadConfig(send_interval_s=10.0),
    )
    return CollectionNetwork(city_grid(n_nodes, blocks=3, block_m=100), config)


@pytest.mark.parametrize("medium", ["exact", "fast"])
def test_one_shot_pair_draws_are_not_interned(medium):
    net = city_network(medium)
    net.run()
    channel = net.channel
    # Every pair in reach got its shadowing draw: O(N^2) values, no streams.
    # The fast medium holds them in its pair arrays, not in the channel.
    if medium == "fast":
        assert net.medium._pair_gain.size > N_NODES * 40
        assert not channel._shadowing and not channel._mean_gain
    else:
        assert len(channel._shadowing) > N_NODES * 40
    node_keys = Counter(key[0] for key in net.rng._streams)
    channel_keys = Counter(key[0] for key in channel._rng._streams)
    assert not ONE_SHOT & (set(node_keys) | set(channel_keys))
    # Node-level streams: a handful per node (mac, est, net, app, rx).
    assert sum(node_keys.values()) <= 6 * N_NODES + 1
    if medium == "fast":
        # The fast backend keeps its per-pair state in PCG64-fed arrays.
        assert not channel_keys
    else:
        # Each interned channel generator backs live OU / Gilbert state;
        # nothing else is per pair.
        live_gilbert = sum(state is not None for state in channel._gilbert.values())
        assert channel_keys["ou"] == len(channel._ou)
        assert channel_keys["bimodal-dwell"] == live_gilbert
        assert set(channel_keys) <= {"ou", "bimodal-dwell"}


def in_reach_pairs(medium):
    """``(ids, lo, hi)`` of every in-reach pair, in the medium's pair order."""
    positions = medium.channel.positions
    grid = SpatialGrid({nid: positions[nid] for nid in medium._participants}, medium._radius_m)
    return grid.pair_arrays()


def test_pair_gains_equal_the_scalar_path_bitwise():
    net = city_network("fast", n_nodes=150)
    channel, medium = net.channel, net.medium
    positions = channel.positions
    ids = sorted(medium._participants)
    r2 = medium._radius_m * medium._radius_m

    def in_reach(a, b):
        (ax, ay), (bx, by) = positions[a], positions[b]
        return (bx - ax) * (bx - ax) + (by - ay) * (by - ay) <= r2

    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :] if in_reach(a, b)]
    assert len(pairs) > 150 * 20
    order, lo, hi = in_reach_pairs(medium)
    assert list(zip(order[lo].tolist(), order[hi].tolist())) == pairs
    assert medium._pair_gain.dtype.name == "float64"
    assert medium._pair_gain.size == len(pairs)
    # The scalar path of a fresh channel: one once("shadow") draw per pair.
    fresh = ChannelModel(
        positions,
        RngManager(channel._rng.master_seed),
        pathloss=channel.pathloss,
        shadowing_sigma_db=channel.shadowing_sigma_db,
    )
    want = [fresh.mean_gain_db(b, a).hex() for a, b in pairs]
    assert [g.hex() for g in medium._pair_gain.tolist()] == want
    assert not channel._mean_gain and not channel._shadowing


class Listener:
    def __init__(self, node_id):
        self.node_id = node_id
        self.radio = Radio(node_id=node_id)

    def on_frame_received(self, frame, info):
        pass


#: Traced heap a fast ``finalize`` may keep per in-reach pair.  The pair
#: arrays, the interference reach and the candidate batches hold about
#: 80 B per pair on this city; tuple-keyed gain caches and a slot dict
#: held about 250 B.
HEAP_PER_PAIR_BOUND = 170


def test_finalize_heap_per_in_reach_pair_is_bounded():
    topo = city_grid(300, blocks=3, block_m=100)
    rng = RngManager(3)
    channel = ChannelModel(topo.positions, rng.fork("channel"))
    medium = FastRadioMedium(Engine(), channel, rng)
    for nid in sorted(topo.positions):
        medium.attach(Listener(nid))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        medium.finalize()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n_pairs = in_reach_pairs(medium)[1].size
    assert n_pairs > 300 * 50
    assert held / n_pairs <= HEAP_PER_PAIR_BOUND


def test_exact_medium_run_never_imports_numpy():
    code = textwrap.dedent(
        """
        import sys
        from repro import CollectionNetwork, SimConfig, WorkloadConfig
        from repro.topology.generators import city_grid

        config = SimConfig(
            protocol="4b", seed=1, duration_s=60.0, warmup_s=10.0, medium="exact",
            workload=WorkloadConfig(send_interval_s=10.0),
        )
        CollectionNetwork(city_grid(12, blocks=2, block_m=60), config).run()
        print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
        """
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    ).stdout.strip()
    assert out == "[]"
