"""Behavioral tests for the vectorized ``fast`` medium backend.

The fast backend is *distribution-equivalent* to the exact scalar path
(DESIGN.md §9): same candidate sets, same PRR quantization, same fault
semantics, same counters — but batched numpy draws instead of per-pair
``random.Random`` streams.  These tests pin the parts of the contract
that are exactly preserved (candidates, edge behaviors, determinism,
fault overlay) and bound the parts that are statistical (per-link PRR).
"""

from random import Random

import pytest
from numpy.random import PCG64, Generator

from repro.link.frame import BROADCAST, Frame
from repro.phy.channel import ChannelModel
from repro.phy.radio import Radio
from repro.sim.engine import Engine
from repro.sim.medium import RadioMedium
from repro.sim.medium_fast import FastRadioMedium, _Prefetched
from repro.sim.rng import RngManager

GRID16 = {nid: (12.0 * (nid % 4), 12.0 * (nid // 4)) for nid in range(16)}


class Listener:
    def __init__(self, node_id, tx_power=0.0):
        self.node_id = node_id
        self.radio = Radio(node_id=node_id, tx_power_dbm=tx_power)
        self.received = []

    def on_frame_received(self, frame, info):
        self.received.append((frame, info))


def build(positions, seed=3, medium_cls=FastRadioMedium, **channel_kwargs):
    engine = Engine()
    rng = RngManager(seed)
    defaults = dict(shadowing_sigma_db=0.0, temporal_sigma_db=0.0)
    defaults.update(channel_kwargs)
    channel = ChannelModel(positions, rng.fork("ch"), **defaults)
    medium = medium_cls(engine, channel, rng)
    nodes = {}
    for nid in positions:
        node = Listener(nid)
        medium.attach(node)
        nodes[nid] = node
    medium.finalize()
    return engine, medium, nodes


def broadcast(medium, engine, sender, length=20):
    medium.start_transmission(sender, Frame(src=sender, dst=BROADCAST, length_bytes=length))
    engine.run()


# ----------------------------------------------------------------------
# Basic delivery behavior matches the exact backend's contract
# ----------------------------------------------------------------------
def test_close_link_delivers():
    engine, medium, nodes = build({0: (0.0, 0.0), 1: (5.0, 0.0)})
    broadcast(medium, engine, 0)
    assert len(nodes[1].received) == 1
    frame, info = nodes[1].received[0]
    assert info.snr_db > 20.0 and info.white_bit


def test_far_link_never_delivers():
    engine, medium, nodes = build({0: (0.0, 0.0), 1: (500.0, 0.0)})
    for _ in range(20):
        broadcast(medium, engine, 0)
    assert nodes[1].received == []


def test_zero_candidate_sender_is_harmless():
    # Node 1 is beyond every budget: sender 0 has an empty candidate batch
    # and node 1 itself transmits into a zero-candidate neighborhood.
    engine, medium, nodes = build({0: (0.0, 0.0), 1: (5000.0, 0.0)})
    assert medium.candidate_receivers(1) == []
    broadcast(medium, engine, 1)
    broadcast(medium, engine, 0)
    assert nodes[0].received == [] and nodes[1].received == []
    assert medium.transmissions == 2
    assert medium.deliveries == 0


def test_self_reception_excluded():
    engine, medium, nodes = build(GRID16)
    for sid in nodes:
        assert all(rid != sid for rid, _ in medium.candidate_receivers(sid))
    broadcast(medium, engine, 5)
    assert nodes[5].received == []


def test_half_duplex_sender_cannot_receive():
    engine, medium, nodes = build({0: (0.0, 0.0), 1: (5.0, 0.0)})
    medium.start_transmission(0, Frame(src=0, dst=BROADCAST, length_bytes=200))
    medium.start_transmission(1, Frame(src=1, dst=BROADCAST, length_bytes=20))
    engine.run()
    # Node 1 transmitted during node 0's frame: deaf for its duration.
    assert all(f.src != 0 for f, _ in nodes[1].received)


# ----------------------------------------------------------------------
# Candidate parity with the exact backend
# ----------------------------------------------------------------------
def test_candidate_sets_match_exact_backend():
    _, fast, _ = build(GRID16, seed=9, shadowing_sigma_db=3.2,
                       temporal_sigma_db=1.5, bimodal_fraction=0.3)
    _, exact, _ = build(GRID16, seed=9, medium_cls=RadioMedium,
                        shadowing_sigma_db=3.2, temporal_sigma_db=1.5,
                        bimodal_fraction=0.3)
    for sid in GRID16:
        f = fast.candidate_receivers(sid)
        e = exact.candidate_receivers(sid)
        assert [rid for rid, _ in f] == [rid for rid, _ in e]
        for (_, gf), (_, ge) in zip(f, e):
            assert gf == pytest.approx(ge, abs=1e-12)


# ----------------------------------------------------------------------
# Determinism: same seed → same run, different seed → different draws
# ----------------------------------------------------------------------
def _delivery_trace(seed):
    engine, medium, nodes = build(GRID16, seed=seed, shadowing_sigma_db=3.2,
                                  temporal_sigma_db=1.5, bimodal_fraction=0.3)
    for i in range(80):
        broadcast(medium, engine, i % len(nodes), length=36)
    return [
        (nid, f.src, info.rssi_dbm, info.lqi, info.white_bit)
        for nid in sorted(nodes)
        for f, info in nodes[nid].received
    ]


def test_same_seed_identical_trace():
    assert _delivery_trace(7) == _delivery_trace(7)


def test_different_seed_different_trace():
    assert _delivery_trace(7) != _delivery_trace(8)


# ----------------------------------------------------------------------
# Carrier sense (mean-field, spatially culled)
# ----------------------------------------------------------------------
def test_channel_clear_sees_nearby_transmission():
    engine, medium, nodes = build({0: (0.0, 0.0), 1: (3.0, 0.0), 2: (400.0, 0.0)})
    medium.start_transmission(0, Frame(src=0, dst=BROADCAST, length_bytes=200))
    assert medium.channel_clear(1) is False  # 3 m: well above any CCA threshold
    assert medium.channel_clear(2) is True  # 400 m: carrier unhearable
    engine.run()
    assert medium.channel_clear(1) is True


# ----------------------------------------------------------------------
# Fault overlay: blackouts and dB offsets, identical semantics
# ----------------------------------------------------------------------
def test_fault_blackout_drops_and_counts():
    engine, medium, nodes = build({0: (0.0, 0.0), 1: (5.0, 0.0)})
    faults = medium.enable_faults()
    broadcast(medium, engine, 0)
    assert len(nodes[1].received) == 1  # no active fault: delivery intact
    faults.blackout_start(0, 1)
    broadcast(medium, engine, 0)
    broadcast(medium, engine, 0)
    assert len(nodes[1].received) == 1
    assert faults.blackout_drops == 2
    faults.blackout_end(0, 1)
    broadcast(medium, engine, 0)
    assert len(nodes[1].received) == 2


def test_fault_offset_shifts_link_gain():
    # 5 m at 0 dBm is ~37 dB of SNR margin; a −200 dB shift buries it.
    engine, medium, nodes = build({0: (0.0, 0.0), 1: (5.0, 0.0)})
    faults = medium.enable_faults()
    faults.shift(-200.0, 0, 1)
    for _ in range(10):
        broadcast(medium, engine, 0)
    assert nodes[1].received == []
    faults.shift(+200.0, 0, 1)  # cumulative: back to nominal
    broadcast(medium, engine, 0)
    assert len(nodes[1].received) == 1


def test_fault_offset_matches_exact_backend_rssi():
    # The dB offset must land in RxInfo identically on both backends: with
    # all fading off, RSSI is deterministic (mean gain + offset).
    for medium_cls in (RadioMedium, FastRadioMedium):
        engine, medium, nodes = build(
            {0: (0.0, 0.0), 1: (5.0, 0.0)}, medium_cls=medium_cls)
        base_rssi = None
        broadcast(medium, engine, 0)
        base_rssi = nodes[1].received[-1][1].rssi_dbm
        medium.enable_faults().shift(-7.5, 0, 1)
        broadcast(medium, engine, 0)
        shifted = nodes[1].received[-1][1].rssi_dbm
        assert shifted == pytest.approx(base_rssi - 7.5, abs=1e-9)


# ----------------------------------------------------------------------
# Distribution equivalence: per-link PRR within binomial tolerance
# ----------------------------------------------------------------------
def _link_prr(medium_cls, distance_m, n=600, seed=5, **channel_kwargs):
    engine, medium, nodes = build(
        {0: (0.0, 0.0), 1: (distance_m, 0.0)}, seed=seed,
        medium_cls=medium_cls, **channel_kwargs)
    for _ in range(n):
        broadcast(medium, engine, 0)
    return len(nodes[1].received) / n


@pytest.mark.parametrize("distance_m", [27.0, 29.2, 31.5])
def test_transition_region_prr_matches_exact(distance_m):
    # Fading off: both backends sample the same quantized PRR curve, so
    # the delivery fractions differ only by binomial noise.  With n = 600
    # and p in the transition region, 4·σ ≈ 0.08.
    p_exact = _link_prr(RadioMedium, distance_m)
    p_fast = _link_prr(FastRadioMedium, distance_m)
    assert abs(p_exact - p_fast) < 0.08


def test_faded_network_delivery_count_is_close():
    # Full channel model on a 16-node grid: aggregate deliveries from the
    # two backends agree to within a few percent (they are independent
    # samples of the same reception distribution).
    def total(medium_cls):
        engine, medium, nodes = build(
            GRID16, seed=13, medium_cls=medium_cls, shadowing_sigma_db=3.2,
            temporal_sigma_db=1.5, bimodal_fraction=0.3)
        for i in range(400):
            broadcast(medium, engine, i % len(nodes), length=36)
        return medium.deliveries

    exact_total = total(RadioMedium)
    fast_total = total(FastRadioMedium)
    assert exact_total > 0
    assert abs(fast_total - exact_total) / exact_total < 0.10


# ----------------------------------------------------------------------
# Pre-drawn blocks serve exactly the per-call draws
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", ["standard_normal", "random"])
@pytest.mark.parametrize("seed", [0, 7, 2**31 + 5])
def test_prefetched_draws_equal_per_call_draws(method, seed):
    sizes = Random(seed).choices([0, 1, 2, 57, 300, 4095, 4096, 9000], k=60)
    direct = getattr(Generator(PCG64(seed)), method)
    served = _Prefetched(getattr(Generator(PCG64(seed)), method))
    for n in sizes:
        assert served(n).tolist() == direct(n).tolist()


# ----------------------------------------------------------------------
# A unicast frame nobody overhears goes straight to its addressee
# ----------------------------------------------------------------------
class _OverhearingProbe:
    def __init__(self):
        self.overheard = 0

    def transmission_start(self, sender, frame):
        pass

    def rx(self, rid, frame, info):
        self.overheard += 1


def test_unicast_without_probe_delivers_what_the_decode_loop_delivers():
    # With a probe the medium walks every decode; without one it hands a
    # unicast frame to its addressee alone.  Same seed, same draws: the
    # addressee must receive the same frames with the same RxInfo.
    runs = []
    for probed in (False, True):
        engine, medium, nodes = build(
            GRID16, seed=9, shadowing_sigma_db=4.0, temporal_sigma_db=2.0
        )
        probe = medium.probe = _OverhearingProbe() if probed else None
        for k in range(300):
            src, dst = k % 16, (5 * k + 3) % 16
            if src != dst:
                medium.start_transmission(src, Frame(src=src, dst=dst, length_bytes=30))
                engine.run()
        runs.append(
            {nid: [(f.src, vars(info)) for f, info in node.received] for nid, node in nodes.items()}
        )
        if probe is not None:
            assert probe.overheard > 0
    assert runs[0] == runs[1]
    got = sum(len(v) for v in runs[0].values())
    assert 50 < got < 285  # some frames lost, most delivered
