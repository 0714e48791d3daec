"""Unit tests for the SINR-based radio medium."""

import random

import pytest

from repro.link.frame import BROADCAST, Frame
from repro.phy.channel import ChannelModel, PathLossModel
from repro.phy.radio import Radio
from repro.sim.engine import Engine
from repro.sim.medium import RadioMedium
from repro.sim.rng import RngManager


class Listener:
    """Minimal medium participant that records receptions."""

    def __init__(self, node_id: int, tx_power: float = 0.0):
        self.node_id = node_id
        self.radio = Radio(node_id=node_id, tx_power_dbm=tx_power)
        self.received = []

    def on_frame_received(self, frame, info):
        self.received.append((frame, info))


def build_medium(positions, seed=3, **channel_kwargs):
    engine = Engine()
    rng = RngManager(seed)
    defaults = dict(shadowing_sigma_db=0.0, temporal_sigma_db=0.0)
    defaults.update(channel_kwargs)
    channel = ChannelModel(positions, rng.fork("ch"), **defaults)
    medium = RadioMedium(engine, channel, rng)
    nodes = {}
    for nid in positions:
        node = Listener(nid)
        medium.attach(node)
        nodes[nid] = node
    medium.finalize()
    return engine, medium, nodes


def test_close_link_delivers():
    engine, medium, nodes = build_medium({0: (0.0, 0.0), 1: (5.0, 0.0)})
    medium.start_transmission(0, Frame(src=0, dst=BROADCAST, length_bytes=20))
    engine.run()
    assert len(nodes[1].received) == 1


def test_far_link_never_delivers():
    engine, medium, nodes = build_medium({0: (0.0, 0.0), 1: (500.0, 0.0)})
    for _ in range(20):
        medium.start_transmission(0, Frame(src=0, dst=BROADCAST, length_bytes=20))
        engine.run()
    assert nodes[1].received == []


def test_candidate_list_prunes_unreachable():
    engine, medium, nodes = build_medium({0: (0.0, 0.0), 1: (5.0, 0.0), 2: (800.0, 0.0)})
    candidates = {rid for rid, _ in medium.candidate_receivers(0)}
    assert 1 in candidates
    assert 2 not in candidates


def test_rx_info_reports_high_snr_close_in():
    engine, medium, nodes = build_medium({0: (0.0, 0.0), 1: (2.0, 0.0)})
    medium.start_transmission(0, Frame(src=0, dst=BROADCAST, length_bytes=20))
    engine.run()
    _, info = nodes[1].received[0]
    # 2 m at 0 dBm: RSSI ≈ −64 dBm, SNR ≈ 34 dB.
    assert info.snr_db > 25.0
    assert info.white_bit


def test_intermediate_distance_gives_partial_prr():
    # Calibrate a distance whose SNR sits in the transition region (~ -1 dB):
    # 0 dBm − 55 − 30·log10(d) + 98 = −1  →  d ≈ 29.2 m.
    engine, medium, nodes = build_medium({0: (0.0, 0.0), 1: (29.2, 0.0)})
    n = 300
    for _ in range(n):
        medium.start_transmission(0, Frame(src=0, dst=BROADCAST, length_bytes=20))
        engine.run()
    ratio = len(nodes[1].received) / n
    assert 0.1 < ratio < 0.95


def test_overlapping_transmission_destroys_weaker_frame():
    # Receiver at 5 m from sender 0 but 1 m from sender 1: the frame from
    # sender 0 sees SINR ≈ −21 dB during the overlap and dies.  (DSSS
    # processing gain means an *equal-power* overlap, SINR ≈ 0 dB, is
    # survivable in this model — only the weaker side of an asymmetric
    # overlap is destroyed.)
    engine, medium, nodes = build_medium({0: (0.0, 0.0), 1: (6.0, 0.0), 2: (5.0, 0.0)})
    medium.start_transmission(0, Frame(src=0, dst=BROADCAST, length_bytes=40))
    medium.start_transmission(1, Frame(src=1, dst=BROADCAST, length_bytes=40))
    engine.run()
    senders = {frame.src for frame, _ in nodes[2].received}
    assert 0 not in senders
    assert medium.collisions >= 1


def test_capture_effect_stronger_frame_survives():
    # Sender 0 is much closer to the receiver than sender 1: its frame
    # captures the channel despite the overlap.
    engine, medium, nodes = build_medium({0: (0.0, 0.0), 1: (28.0, 0.0), 2: (1.0, 0.0)})
    medium.start_transmission(0, Frame(src=0, dst=BROADCAST, length_bytes=40))
    medium.start_transmission(1, Frame(src=1, dst=BROADCAST, length_bytes=40))
    engine.run()
    senders = {frame.src for frame, _ in nodes[2].received}
    assert senders == {0}


def test_half_duplex_sender_cannot_receive():
    engine, medium, nodes = build_medium({0: (0.0, 0.0), 1: (5.0, 0.0)})
    medium.start_transmission(0, Frame(src=0, dst=BROADCAST, length_bytes=40))
    medium.start_transmission(1, Frame(src=1, dst=BROADCAST, length_bytes=40))
    engine.run()
    # Node 0 was transmitting during node 1's frame: nothing received.
    assert nodes[0].received == []


def test_channel_clear_sees_active_transmission():
    engine, medium, nodes = build_medium({0: (0.0, 0.0), 1: (5.0, 0.0)})
    assert medium.channel_clear(1)
    medium.start_transmission(0, Frame(src=0, dst=BROADCAST, length_bytes=100))
    assert not medium.channel_clear(1)
    engine.run()
    assert medium.channel_clear(1)


def test_channel_clear_ignores_distant_transmitters():
    engine, medium, nodes = build_medium({0: (0.0, 0.0), 1: (400.0, 0.0)})
    medium.start_transmission(0, Frame(src=0, dst=BROADCAST, length_bytes=100))
    # RSSI at 400 m ≈ −133 dBm, far below the −77 dBm CCA threshold.
    assert medium.channel_clear(1)


def test_is_transmitting():
    engine, medium, nodes = build_medium({0: (0.0, 0.0), 1: (5.0, 0.0)})
    assert not medium.is_transmitting(0)
    medium.start_transmission(0, Frame(src=0, dst=BROADCAST, length_bytes=40))
    assert medium.is_transmitting(0)
    engine.run()
    assert not medium.is_transmitting(0)


def test_duplicate_attach_rejected():
    engine, medium, nodes = build_medium({0: (0.0, 0.0), 1: (5.0, 0.0)})
    with pytest.raises(ValueError):
        medium.attach(Listener(0))


def test_transmission_counters():
    engine, medium, nodes = build_medium({0: (0.0, 0.0), 1: (5.0, 0.0)})
    medium.start_transmission(0, Frame(src=0, dst=BROADCAST, length_bytes=20))
    engine.run()
    assert medium.transmissions == 1
    assert medium.deliveries == 1


def test_airtime_scales_with_length():
    engine, medium, nodes = build_medium({0: (0.0, 0.0), 1: (5.0, 0.0)})
    short = medium.start_transmission(0, Frame(src=0, dst=BROADCAST, length_bytes=10))
    engine.run()
    long = medium.start_transmission(0, Frame(src=0, dst=BROADCAST, length_bytes=100))
    assert long > short


def test_interference_only_participant_not_a_receiver():
    engine = Engine()
    rng = RngManager(3)
    channel = ChannelModel(
        {0: (0.0, 0.0), 1: (5.0, 0.0)}, rng.fork("ch"), shadowing_sigma_db=0.0, temporal_sigma_db=0.0
    )
    medium = RadioMedium(engine, channel, rng)
    sender = Listener(0)
    jammer = Listener(1)
    medium.attach(sender)
    medium.attach(jammer, receiver=False)
    medium.finalize()
    medium.start_transmission(0, Frame(src=0, dst=BROADCAST, length_bytes=20))
    engine.run()
    assert jammer.received == []
