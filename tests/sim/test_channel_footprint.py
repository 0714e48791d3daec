"""Per-pair channel draws keep no generator alive.

Static shadowing, the OU initial value and bimodal membership are drawn
once per pair through ``RngManager.once``; only the stateful per-pair
streams (``"ou"``, ``"bimodal-dwell"``) are interned.  ``finalize()`` draws
every in-reach pair's shadowing in one batch, which must equal the scalar
per-pair path bit for bit; an exact-medium run never loads numpy.
"""

import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro import CollectionNetwork, SimConfig, WorkloadConfig
from repro.phy.channel import ChannelModel
from repro.sim.rng import RngManager
from repro.topology.generators import city_grid

N_NODES = 200
ONE_SHOT = {"shadow", "ou-init", "bimodal"}


def city_network(medium: str, n_nodes: int = N_NODES) -> CollectionNetwork:
    config = SimConfig(
        protocol="4b",
        seed=3,
        duration_s=30.0,
        warmup_s=10.0,
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
    assert len(channel._shadowing) > N_NODES * 40
    node_keys = Counter(key[0] for key in net.rng._streams)
    channel_keys = Counter(key[0] for key in channel._rng._streams)
    assert not ONE_SHOT & (set(node_keys) | set(channel_keys))
    # Node-level streams: a handful per node (mac, est, net, app, boot, rx).
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


def test_finalize_prefills_every_in_reach_pair_bitwise():
    net = city_network("fast", n_nodes=150)
    channel, medium = net.channel, net.medium
    positions = channel.positions
    ids = sorted(medium._participants)
    r2 = medium._radius_m * medium._radius_m

    def in_reach(a, b):
        (ax, ay), (bx, by) = positions[a], positions[b]
        return (bx - ax) * (bx - ax) + (by - ay) * (by - ay) <= r2

    pairs = {(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :] if in_reach(a, b)}
    assert len(pairs) > 150 * 20
    assert set(channel._mean_gain) == set(channel._shadowing) == pairs
    # The scalar path of a fresh channel: one once("shadow") draw per pair.
    fresh = ChannelModel(
        positions,
        RngManager(channel._rng.master_seed),
        pathloss=channel.pathloss,
        shadowing_sigma_db=channel.shadowing_sigma_db,
    )
    for a, b in sorted(pairs):
        assert channel._mean_gain[a, b].hex() == fresh.mean_gain_db(b, a).hex()
        assert channel._shadowing[a, b].hex() == fresh._shadowing[a, b].hex()


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
