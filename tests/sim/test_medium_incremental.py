"""Incremental structural maintenance equals a fresh build (DESIGN.md §11).

The fast backend patches per-sender batch state on attach/detach/move
instead of rebuilding.  These tests pin the contract that no churn
history can leak into query results: after an arbitrary interleaving of
moves, crashes and reboots, every candidate list must match a medium
built from scratch over the final layout with the same master seed.
"""

from random import Random

import pytest

from repro.phy.channel import ChannelModel
from repro.phy.radio import Radio
from repro.sim.engine import Engine
from repro.sim.medium_fast import FastRadioMedium
from repro.sim.rng import RngManager

GRID25 = {nid: (11.0 * (nid % 5), 11.0 * (nid // 5)) for nid in range(25)}


class Listener:
    def __init__(self, node_id):
        self.node_id = node_id
        self.radio = Radio(node_id=node_id)

    def on_frame_received(self, frame, info):
        pass


def build(positions, seed=3):
    """Fast medium over ``positions`` with deterministic per-pair gains.

    Temporal/bimodal dynamics draw from streams at *sample* time, which
    is irrelevant here: candidate construction depends only on the mean
    gains, and those are a pure function of (seed, pair, distance) — so
    an incrementally patched medium and a fresh build must agree exactly.
    """
    engine = Engine()
    rng = RngManager(seed)
    channel = ChannelModel(
        dict(positions),
        rng.fork("channel"),
        shadowing_sigma_db=3.2,
        temporal_sigma_db=0.0,
        bimodal_fraction=0.0,
    )
    medium = FastRadioMedium(engine, channel, rng)
    nodes = {}
    for nid in positions:
        node = Listener(nid)
        medium.attach(node)
        nodes[nid] = node
    medium.finalize()
    return medium, nodes


def all_candidates(medium, node_ids):
    return {sid: medium.candidate_receivers(sid) for sid in sorted(node_ids)}


def test_attach_after_finalize_without_position_raises():
    medium, _ = build(GRID25)
    with pytest.raises(RuntimeError, match="no channel position"):
        medium.attach(Listener(99))
    # Nothing was half-registered by the failed attach.
    assert 99 not in medium._participants
    medium.channel.add_position(99, (27.0, 27.0))
    medium.attach(Listener(99))
    assert any(rid == 99 for rid, _ in medium.candidate_receivers(12))


def test_moved_medium_matches_fresh_build():
    medium, _ = build(GRID25)
    walk = Random(41)
    final = dict(GRID25)
    for _ in range(300):
        nid = walk.randrange(25)
        x = walk.uniform(-10.0, 60.0)
        y = walk.uniform(-10.0, 60.0)
        medium.update_position(nid, x, y)
        final[nid] = (x, y)
    fresh, _ = build(final)
    assert all_candidates(medium, GRID25) == all_candidates(fresh, GRID25)


def test_churned_medium_matches_fresh_build():
    """Interleaved moves, crashes and reboots — the surviving membership's
    candidate lists must equal a fresh build over the final layout."""
    medium, nodes = build(GRID25)
    walk = Random(43)
    final = dict(GRID25)
    detached = set()
    for step in range(200):
        nid = walk.randrange(25)
        action = walk.random()
        if action < 0.2 and nid not in detached and len(detached) < 10:
            medium.detach(nid)
            detached.add(nid)
        elif action < 0.4 and detached:
            back = min(detached)  # deterministic pick
            medium.attach(nodes[back])
            detached.discard(back)
        elif nid not in detached:
            x = walk.uniform(-10.0, 60.0)
            y = walk.uniform(-10.0, 60.0)
            medium.update_position(nid, x, y)
            final[nid] = (x, y)
    alive = [nid for nid in GRID25 if nid not in detached]
    fresh, _ = build({nid: final[nid] for nid in alive})
    got = all_candidates(medium, alive)
    want = all_candidates(fresh, alive)
    # Positions of detached nodes persist in the channel (pair identity
    # survives reboots) but they must never appear as candidates.
    for sid, cands in got.items():
        assert not any(rid in detached for rid, _ in cands)
    assert got == want


def test_detach_then_reattach_restores_candidates():
    medium, nodes = build(GRID25)
    before = all_candidates(medium, GRID25)
    medium.detach(12)
    assert all(
        12 != rid
        for sid in GRID25
        if sid != 12
        for rid, _ in medium.candidate_receivers(sid)
    )
    medium.attach(nodes[12])
    assert all_candidates(medium, GRID25) == before


def test_position_update_touches_only_neighborhood():
    """O(k) gate, counted not timed: one position update may only bump
    the sender epochs of nodes inside the mover's old/new radius — never
    a fixed fraction of the whole deployment."""
    from repro.sim.engine import Engine
    from repro.sim.medium_fast import FastRadioMedium
    from repro.sim.rng import RngManager
    from repro.phy.channel import ChannelModel
    from repro.topology.generators import city_grid

    topo = city_grid(2000, blocks=14, block_m=220.0, rng=RngManager(5).stream("t"))
    engine = Engine()
    rng = RngManager(7)
    channel = ChannelModel(topo.positions, rng.fork("channel"), shadowing_sigma_db=3.0)
    medium = FastRadioMedium(engine, channel, rng)

    class _Stub:
        def __init__(self, nid, radio):
            self.node_id = nid
            self.radio = radio

    from repro.phy.radio import Radio

    for nid in topo.node_ids():
        medium.attach(_Stub(nid, Radio(node_id=nid)))
    medium.finalize()

    mover = topo.node_ids()[0]
    x, y = channel.positions[mover]
    before = dict(medium._sender_epoch)
    medium.update_position(mover, x + 3.0, y + 1.0)
    bumped = [
        nid
        for nid, epoch in medium._sender_epoch.items()
        if epoch != before.get(nid)
    ]
    neighborhood = set(medium._grid.neighbors(mover)) | {mover}
    assert set(bumped) <= neighborhood
    # O(k), not O(N): the touched set is the local neighborhood.
    assert len(bumped) < len(topo.node_ids()) / 10
