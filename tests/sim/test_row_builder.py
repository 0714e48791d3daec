"""The fast medium's row builder against an independent per-pair reference.

``FastRadioMedium.finalize`` builds every sender's candidate batch in one
array pass (cell join, batched gains, array masks, first-contact slots);
it is the only builder, since the medium is static after it.  The
reference below rebuilds the same rows the slow, obvious way, one pair at
a time: a brute-force radius query, the receivers in dense-axis (attach)
order, scalar gains from a fresh channel, the mean-SNR cutoff, the CCA
threshold and slots numbered at first contact.  Every batch array, the
carrier-reach sets and the slot array must equal it exactly, and so must
the interference vectors, against the distance scan they replaced.
"""

import math
from random import Random

import numpy as np
import pytest

from repro import CollectionNetwork, SimConfig
from repro.phy.channel import ChannelModel
from repro.phy.radio import CC1000, CC2420, Radio
from repro.sim.engine import Engine
from repro.sim.medium import _NEIGHBOR_SNR_CUTOFF_DB
from repro.sim.medium_fast import FastRadioMedium
from repro.sim.rng import RngManager
from repro.sim.spatial import SpatialGrid
from repro.topology.generators import city_grid


class Listener:
    def __init__(self, node_id, radio):
        self.node_id = node_id
        self.radio = radio

    def on_frame_received(self, frame, info):
        pass


def reference_rows(medium, dense_order):
    """Per-sender rows of ``medium``'s live layout, one pair at a time.

    ``dense_order`` is every receiver id in the order the medium first saw
    it (attach order).  Returns ``{sid:
    rows}`` plus the slot map a finalize numbers in first-contact order.
    """
    channel = medium.channel
    fresh = ChannelModel(
        channel.positions,
        RngManager(channel._rng.master_seed),
        pathloss=channel.pathloss,
        shadowing_sigma_db=channel.shadowing_sigma_db,
    )
    positions = channel.positions
    participants = medium._participants
    receivers = medium._receivers
    rank = {rid: i for i, rid in enumerate(dense_order)}
    r2 = medium._radius_m * medium._radius_m
    rows = {}
    slots = {}
    for sid in sorted(participants):
        sx, sy = positions[sid]
        near = []
        for nid in participants:
            dx, dy = positions[nid][0] - sx, positions[nid][1] - sy
            if nid != sid and dx * dx + dy * dy <= r2:
                near.append(nid)
        near.sort(key=lambda nid: (rank.get(nid, len(rank)), nid))
        ptx = participants[sid].radio.effective_tx_power_dbm
        cand, heard = [], set()
        for nid in near:
            gain = fresh.mean_gain_db(sid, nid)
            radio = participants[nid].radio
            if ptx + gain >= radio.params.cca_threshold_dbm:
                heard.add(nid)
            if nid in receivers and ptx + gain - radio.noise_floor_dbm >= _NEIGHBOR_SNR_CUTOFF_DB:
                cand.append((nid, gain))
                slots.setdefault((min(sid, nid), max(sid, nid)), len(slots))
        rows[sid] = (cand, heard)
    return rows, slots


def slot_map(medium):
    """``{(a, b): slot}`` of the medium's candidate pairs, by slot.

    Reads the slot array against the in-reach pairs it is aligned with;
    every other pair must hold −1.
    """
    positions = medium.channel.positions
    grid = SpatialGrid({nid: positions[nid] for nid in medium._participants}, medium._radius_m)
    ids, lo, hi = grid.pair_arrays()
    slots = medium._slot_by_pair
    assert slots.dtype == np.int32 and slots.size == lo.size
    held = np.nonzero(slots >= 0)[0]
    assert slots.min(initial=-1) >= -1
    pairs = zip(ids[lo[held]].tolist(), ids[hi[held]].tolist())
    return dict(sorted(zip(pairs, slots[held].tolist()), key=lambda item: item[1]))


def assert_batch_matches(medium, dense_order, sid, cand, heard, slots):
    batch = medium._soa[sid]
    rids = [rid for rid, _ in cand]
    assert batch.rid_list == rids
    assert batch.rids.tolist() == rids
    assert all(a is medium._receivers[rid] for a, rid in zip(batch.receivers, rids))
    assert [g.hex() for g in batch.mean_gain.tolist()] == [g.hex() for _, g in cand]
    floors = [medium._receivers[rid].radio.noise_floor_dbm for rid in rids]
    noise_mw = [10.0 ** (nf / 10.0) for nf in floors]
    assert batch.noise_mw.tolist() == noise_mw
    assert batch.noise_db.tolist() == [10.0 * math.log10(mw) for mw in noise_mw]
    assert batch.rid_dense.tolist() == [dense_order.index(rid) for rid in rids]
    mods = [medium._receivers[rid].radio.params.modulation for rid in rids]
    names = sorted(set(mods))
    assert batch.mod_names == names
    assert batch.mod_uniform == (names[0] if len(names) == 1 else None)
    assert batch.mod_ids.tolist() == [names.index(m) for m in mods]
    assert batch.n == len(rids)
    assert batch.pair_idx.tolist() == [slots[(min(sid, rid), max(sid, rid))] for rid in rids]
    assert batch.cca_heard == frozenset(heard)
    assert medium.candidate_receivers(sid) == cand


def assert_medium_matches(medium, dense_order):
    rows, slots = reference_rows(medium, dense_order)
    held = slot_map(medium)
    assert sorted(medium._soa) == sorted(rows)
    for sid, (cand, heard) in rows.items():
        assert_batch_matches(medium, dense_order, sid, cand, heard, held)
    assert list(held.items()) == list(slots.items())
    return rows


def manual_medium(positions, order, interference_only=(), seed=5, **channel_kw):
    """A fast medium over ``positions``, attached in ``order``, with
    per-node hardware variation and a few CC1000 (``ncfsk``) radios."""
    rng = RngManager(seed)
    channel_kw.setdefault("shadowing_sigma_db", 4.0)
    channel = ChannelModel(dict(positions), rng.fork("channel"), **channel_kw)
    medium = FastRadioMedium(Engine(), channel, rng)
    draw = Random(seed)
    nodes = {}
    for nid in order:
        radio = Radio(node_id=nid, params=CC1000 if nid % 7 == 3 else CC2420)
        radio.tx_power_offset_db = draw.gauss(0.0, 1.0)
        radio.noise_floor_dbm += draw.gauss(0.0, 1.5)
        nodes[nid] = Listener(nid, radio)
        medium.attach(nodes[nid], receiver=nid not in interference_only)
    medium.finalize()
    return medium, nodes


def scattered(n, seed, side=90.0):
    draw = Random(seed)
    return {nid: (draw.uniform(0.0, side), draw.uniform(0.0, side)) for nid in range(n)}


def test_city_with_hardware_variation_matches_reference():
    config = SimConfig(protocol="4b", seed=3, medium="fast")
    net = CollectionNetwork(city_grid(150, blocks=3, block_m=100), config)
    medium = net.medium
    radios = [p.radio for p in medium._participants.values()]
    # Hardware variation gives every node its own power and noise floor.
    assert len({r.effective_tx_power_dbm for r in radios}) == len(radios)
    assert len({r.noise_floor_dbm for r in radios}) == len(radios)
    rows = assert_medium_matches(medium, list(medium._receivers))
    assert sum(len(cand) for cand, _ in rows.values()) > 150 * 10
    # The CCA threshold sits far above the candidate cutoff: few carriers
    # are heard, but some are.
    assert any(heard for _, heard in rows.values())


def test_attach_order_not_id_order_matches_reference():
    positions = scattered(60, seed=11, side=40.0)
    order = list(positions)
    Random(4).shuffle(order)
    assert order != sorted(order)
    medium, _ = manual_medium(positions, order)
    assert medium._dense_ids == order
    rows = assert_medium_matches(medium, order)
    # Candidates come in attach order, which is not id order here.
    assert any(
        [rid for rid, _ in cand] != sorted(rid for rid, _ in cand) for cand, _ in rows.values()
    )
    # Both modulations appear, and some sender mixes them.
    assert any(medium._soa[sid].mod_uniform is None for sid in rows)


def test_interference_only_participant_matches_reference():
    positions = scattered(40, seed=12, side=20.0)
    jammers = {5, 22}
    order = sorted(positions, reverse=True)
    medium, _ = manual_medium(positions, order, interference_only=jammers)
    rows = assert_medium_matches(medium, [nid for nid in order if nid not in jammers])
    for sid, (cand, heard) in rows.items():
        assert jammers.isdisjoint(rid for rid, _ in cand)
    # A jammer sends (it has rows) and hears carriers, but never receives.
    assert all(rows[j][0] for j in jammers)
    assert any(jammers & heard for _, heard in rows.values())


@pytest.mark.parametrize("interference_only", [(), (8,)])
def test_attach_after_finalize_refinalizes_to_reference(interference_only):
    positions = scattered(50, seed=13, side=30.0)
    order = list(positions)
    Random(6).shuffle(order)
    medium, _ = manual_medium(positions, order, interference_only=interference_only)
    dense = [nid for nid in order if nid not in interference_only]
    assert_medium_matches(medium, dense)
    # A located, brand-new node re-opens the medium; the next finalize
    # builds from scratch, with the node at the end of the dense axis.
    medium.channel.add_position(99, (12.0, 12.0))
    medium.attach(Listener(99, Radio(node_id=99)))
    assert not medium._finalized
    medium.finalize()
    assert medium._dense_ids == dense + [99]
    rows = assert_medium_matches(medium, dense + [99])
    assert rows[99][0] and any(99 in [rid for rid, _ in cand] for cand, _ in rows.values())


def test_finalize_slots_are_first_contact_numbered():
    medium, _ = manual_medium(scattered(30, seed=14), list(range(30)))
    slots = sorted(slot_map(medium).values())
    assert slots == list(range(len(slots)))
    pair_idx = np.concatenate([medium._soa[sid].pair_idx for sid in sorted(medium._soa)])
    # Each slot first appears in order along the (sender, dense) walk.
    _, first = np.unique(pair_idx, return_index=True)
    assert pair_idx[np.sort(first)].tolist() == slots


def reference_inter_mw(medium, ref_slots, oid, power_dbm):
    """The distance scan and scalar gains of the dense interference vector.

    Every receiver on the dense axis within the medium's radius of ``oid``
    (itself excluded) gets ``10 ** ((p + g + extra) / 10)`` mW, with ``g``
    from a fresh channel's scalar path and the bimodal correction chosen by
    the reference slot map; ``None`` when no receiver is in reach.
    """
    channel = medium.channel
    fresh = ChannelModel(
        channel.positions,
        RngManager(channel._rng.master_seed),
        pathloss=channel.pathloss,
        shadowing_sigma_db=channel.shadowing_sigma_db,
    )
    positions = channel.positions
    ox, oy = positions[oid]
    r2 = medium._radius_m * medium._radius_m
    dense = [0.0] * len(medium._dense_ids)
    reached = False
    for j, rid in enumerate(medium._dense_ids):
        dx, dy = positions[rid][0] - ox, positions[rid][1] - oy
        if rid == oid or not dx * dx + dy * dy <= r2:
            continue
        reached = True
        extra = medium._ou_mean_extra_db
        slot = ref_slots.get((min(oid, rid), max(oid, rid)))
        if slot is None:
            extra += medium._expected_bimodal_extra_db
        elif medium._g_bimodal[slot]:
            extra += medium._bimodal_mean_extra_db
        dense[j] = 10.0 ** ((power_dbm + fresh.mean_gain_db(oid, rid) + extra) / 10.0)
    return dense if reached else None


def test_interference_vectors_match_distance_scan_reference():
    positions = scattered(45, seed=15, side=60.0)
    jammers = {9}
    order = list(positions)
    Random(8).shuffle(order)
    medium, nodes = manual_medium(
        positions, order, interference_only=jammers, bimodal_fraction=0.4
    )
    _, ref_slots = reference_rows(medium, [nid for nid in order if nid not in jammers])
    resolved = set()
    for oid in sorted(positions):
        power = nodes[oid].radio.effective_tx_power_dbm
        for power_dbm in (power, power - 3.5):
            got = medium._inter_mw(oid, power_dbm)
            want = reference_inter_mw(medium, ref_slots, oid, power_dbm)
            if want is None:
                assert got is None
                continue
            # The cache holds the in-reach entries; scattered onto the
            # dense axis they are the reference vector, bit for bit.
            ranks, mw = got
            dense = np.zeros(len(medium._dense_ids))
            dense[ranks] = mw
            assert [v.hex() for v in dense.tolist()] == [v.hex() for v in want]
            for rid, mw in zip(medium._dense_ids, want):
                if mw:
                    slot = ref_slots.get((min(oid, rid), max(oid, rid)))
                    resolved.add(None if slot is None else bool(medium._g_bimodal[slot]))
    # In reach: pairs with no slot, bimodal members and non-members all occur.
    assert resolved == {None, True, False}


def _floats(value):
    """Floats held by one interference-cache value, however it is shaped."""
    if isinstance(value, np.ndarray):
        return value.size if value.dtype.kind == "f" else 0
    if isinstance(value, (tuple, list)):
        return sum(_floats(v) for v in value)
    return 0


def test_interference_cache_holds_one_float_per_in_reach_entry():
    # Real traffic fills the cache; a key may hold at most one float per
    # receiver in its interferer's reach, never one per dense receiver.
    config = SimConfig(protocol="4b", seed=3, medium="fast", duration_s=120.0, warmup_s=30.0)
    net = CollectionNetwork(city_grid(150, blocks=3, block_m=100), config)
    net.run()
    medium = net.medium
    cache = medium._inter_cache
    assert cache
    reach = medium._reach_start
    for (oid, _power), value in cache.items():
        u = medium._node_index[oid]
        assert _floats(value) <= reach[u + 1] - reach[u]
