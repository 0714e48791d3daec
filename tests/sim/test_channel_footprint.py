"""Per-pair channel draws keep no generator alive, and both fast-medium
batch builders agree.

Static shadowing, the OU initial value and bimodal membership are drawn
once per pair through ``RngManager.once``; only the stateful per-pair
streams (``"ou"``, ``"bimodal-dwell"``) are interned.  ``finalize()`` and
``_build_batch`` share one row builder, so a batch built at finalize must
equal one rebuilt from scratch for the same sender.
"""

from collections import Counter

import numpy as np
import pytest

from repro import CollectionNetwork, SimConfig, WorkloadConfig
from repro.topology.generators import city_grid

N_NODES = 200
ONE_SHOT = {"shadow", "ou-init", "bimodal"}


def city_network(medium: str) -> CollectionNetwork:
    config = SimConfig(
        protocol="4b",
        seed=3,
        duration_s=30.0,
        warmup_s=10.0,
        medium=medium,
        workload=WorkloadConfig(send_interval_s=10.0),
    )
    return CollectionNetwork(city_grid(N_NODES, blocks=3, block_m=100), config)


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


def test_finalize_batches_equal_fresh_builds():
    net = city_network("fast")
    medium = net.medium
    pair_slot = medium._pair_slot
    # finalize numbers slots sequentially, in first-contact order.
    assert sorted(pair_slot.values()) == list(range(len(pair_slot)))
    slots_before = dict(pair_slot)
    senders = sorted(medium._participants)
    assert sum(medium._soa[sid].n for sid in senders) > N_NODES * 10
    for sid in senders:
        built = medium._soa.pop(sid)
        candidates = medium._candidates[sid]
        fresh = medium._build_batch(sid)
        assert fresh is not built
        assert fresh.rid_list == built.rid_list
        assert fresh.receivers == built.receivers
        for name in ("mean_gain", "noise_mw", "noise_db", "rid_dense", "pair_idx", "mod_ids"):
            assert np.array_equal(getattr(fresh, name), getattr(built, name)), name
        assert fresh.mod_uniform == built.mod_uniform
        assert fresh.cca_heard == built.cca_heard
        assert medium._candidates[sid] == candidates
    # Rebuilding re-used every finalize-time slot: no fresh state drawn.
    assert medium._pair_slot == slots_before
