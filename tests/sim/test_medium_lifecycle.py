"""Medium lifecycle regressions: finalize idempotence, prune bounds,
channel_clear misuse.

These pin the three PR-6 lifecycle bugfixes:

* ``finalize()`` is idempotent — a second call without an interleaving
  ``attach`` must not rebuild candidate state, so same-seed runs digest
  identically whether a harness calls it once or twice.
* ``_prune_recent`` prunes by horizon as well as length — long runs with
  sparse traffic must not pin an unbounded (or even
  ``_RECENT_PRUNE_LEN``-sized stale) tail of finished transmissions.
* ``channel_clear`` for a node that was never attached is an intentional
  ``ValueError``, not an incidental ``KeyError`` from the position table.
"""

import hashlib

import pytest

from repro.link.frame import BROADCAST, Frame
from repro.phy.channel import ChannelModel
from repro.phy.radio import Radio
from repro.sim.engine import Engine
from repro.sim.medium import _RECENT_PRUNE_LEN, _RECENT_HORIZON_S, RadioMedium
from repro.sim.medium_fast import FastRadioMedium
from repro.sim.rng import RngManager

GRID9 = {nid: (10.0 * (nid % 3), 10.0 * (nid // 3)) for nid in range(9)}


class Listener:
    def __init__(self, node_id):
        self.node_id = node_id
        self.radio = Radio(node_id=node_id)
        self.received = []

    def on_frame_received(self, frame, info):
        self.received.append((frame.src, info.rssi_dbm, info.lqi, info.white_bit))


def build(medium_cls, positions, seed=3, finalize_times=1, **channel_kwargs):
    engine = Engine()
    rng = RngManager(seed)
    defaults = dict(shadowing_sigma_db=3.2, temporal_sigma_db=1.5, bimodal_fraction=0.3)
    defaults.update(channel_kwargs)
    channel = ChannelModel(positions, rng.fork("ch"), **defaults)
    medium = medium_cls(engine, channel, rng)
    nodes = {}
    for nid in positions:
        node = Listener(nid)
        medium.attach(node)
        nodes[nid] = node
    for _ in range(finalize_times):
        medium.finalize()
    return engine, medium, nodes


def run_digest(medium_cls, finalize_times):
    engine, medium, nodes = build(medium_cls, GRID9, finalize_times=finalize_times)
    for i in range(60):
        sender = i % len(nodes)
        medium.start_transmission(sender, Frame(src=sender, dst=BROADCAST, length_bytes=36))
        engine.run()
    h = hashlib.blake2b(digest_size=16)
    for nid in sorted(nodes):
        for row in nodes[nid].received:
            h.update(repr((nid, row)).encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# finalize() idempotence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("medium_cls", [RadioMedium, FastRadioMedium])
def test_double_finalize_same_digest(medium_cls):
    once = run_digest(medium_cls, finalize_times=1)
    twice = run_digest(medium_cls, finalize_times=2)
    assert once == twice


@pytest.mark.parametrize("medium_cls", [RadioMedium, FastRadioMedium])
def test_finalize_skips_rebuild_when_already_finalized(medium_cls):
    engine, medium, nodes = build(medium_cls, GRID9)
    built = "_soa" if medium_cls is FastRadioMedium else "_rx_rows"
    before = getattr(medium, built)
    medium.finalize()
    assert getattr(medium, built) is before  # no rebuild: the guard short-circuited


@pytest.mark.parametrize("medium_cls", [RadioMedium, FastRadioMedium])
def test_attach_after_finalize_reopens(medium_cls):
    engine, medium, nodes = build(medium_cls, GRID9)
    late = Listener(99)
    medium.channel.add_position(99, (5.0, 5.0))
    medium.attach(late)
    medium.finalize()  # re-finalize really rebuilds for the new node
    assert any(rid == 99 for rid, _ in medium.candidate_receivers(4))
    medium.start_transmission(4, Frame(src=4, dst=BROADCAST, length_bytes=36))
    engine.run()
    assert late.received


@pytest.mark.parametrize("medium_cls", [RadioMedium, FastRadioMedium])
def test_attach_after_finalize_without_position_raises(medium_cls):
    _, medium, _ = build(medium_cls, GRID9)
    with pytest.raises(RuntimeError, match="no channel position"):
        medium.attach(Listener(99))
    # Nothing was half-registered by the failed attach.
    assert 99 not in medium._participants
    medium.channel.add_position(99, (27.0, 27.0))
    medium.attach(Listener(99))
    assert any(rid == 99 for rid, _ in medium.candidate_receivers(8))


# ----------------------------------------------------------------------
# _prune_recent horizon bound on long sparse runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("medium_cls", [RadioMedium, FastRadioMedium])
def test_long_sparse_run_bounds_recent_growth(medium_cls):
    engine, medium, nodes = build(
        medium_cls, {0: (0.0, 0.0), 1: (5.0, 0.0)}, shadowing_sigma_db=0.0,
        temporal_sigma_db=0.0, bimodal_fraction=0.0,
    )
    gap = 1.5 * _RECENT_HORIZON_S
    n = 3 * _RECENT_PRUNE_LEN
    max_recent = 0
    for _ in range(n):
        engine.schedule(gap, lambda: None)
        engine.run()
        medium.start_transmission(0, Frame(src=0, dst=BROADCAST, length_bytes=20))
        engine.run()
        max_recent = max(max_recent, len(medium._recent))
    # Every transmission ages past the horizon before the next one starts,
    # so the bookkeeping never accumulates: the high-water mark stays O(1)
    # instead of growing toward _RECENT_PRUNE_LEN (or beyond).
    assert max_recent <= 2
    assert medium.transmissions == n
    assert len(nodes[1].received) == n


# ----------------------------------------------------------------------
# channel_clear misuse
# ----------------------------------------------------------------------
@pytest.mark.parametrize("medium_cls", [RadioMedium, FastRadioMedium])
def test_channel_clear_unattached_node_raises_value_error(medium_cls):
    engine, medium, nodes = build(medium_cls, GRID9)
    with pytest.raises(ValueError, match="not attached"):
        medium.channel_clear(12345)


@pytest.mark.parametrize("medium_cls", [RadioMedium, FastRadioMedium])
def test_channel_clear_attached_node_ok(medium_cls):
    engine, medium, nodes = build(medium_cls, GRID9)
    assert medium.channel_clear(0) is True
