"""Addressed delivery: which decodes reach a participant, on both backends.

The medium hands a decoded frame up only to the node it is addressed to,
or to every decoder of a broadcast.  A decode at any other node still
makes its draws and counts in ``deliveries``, and reaches only an attached
probe's ``rx`` record (``MediumParticipant``, DESIGN.md §6).
"""

import pytest

from repro.link.frame import BROADCAST, AckFrame, Frame
from repro.phy.channel import ChannelModel
from repro.phy.radio import Radio
from repro.sim.engine import Engine
from repro.sim.medium import RadioMedium
from repro.sim.medium_fast import FastRadioMedium
from repro.sim.probe import Monitor
from repro.sim.rng import RngManager

MEDIUMS = [RadioMedium, FastRadioMedium]

#: Five nodes 2 m apart on a static channel: every link decodes every frame.
CLOSE = {nid: (2.0 * nid, 0.0) for nid in range(5)}

FRAMES = 20


class Listener:
    def __init__(self, node_id):
        self.node_id = node_id
        self.radio = Radio(node_id=node_id, tx_power_dbm=0.0)
        self.received = []

    def on_frame_received(self, frame, info):
        self.received.append(frame)


class RxLog(Monitor):
    def __init__(self):
        self.records = []

    def rx(self, node, frame, info):
        self.records.append((node, frame.frame_id, info.timestamp))


def build(medium_cls):
    engine = Engine()
    rng = RngManager(3)
    channel = ChannelModel(CLOSE, rng.fork("ch"), shadowing_sigma_db=0.0, temporal_sigma_db=0.0)
    medium = medium_cls(engine, channel, rng)
    nodes = {nid: Listener(nid) for nid in CLOSE}
    for node in nodes.values():
        medium.attach(node)
    medium.finalize()
    return engine, medium, nodes


def send(engine, medium, frames):
    for frame in frames:
        medium.start_transmission(frame.src, frame)
        engine.run()


@pytest.mark.parametrize("medium_cls", MEDIUMS, ids=lambda cls: cls.__name__)
def test_unicast_reaches_only_its_destination(medium_cls):
    engine, medium, nodes = build(medium_cls)
    data = [Frame(src=0, dst=3, length_bytes=30) for _ in range(FRAMES)]
    acks = [AckFrame(src=0, dst=2, length_bytes=5) for _ in range(FRAMES)]
    send(engine, medium, data + acks)
    assert nodes[3].received == data
    assert nodes[2].received == acks
    assert nodes[1].received == nodes[4].received == nodes[0].received == []
    # Every decode is counted: four receivers decode each of the 40 frames.
    assert medium.deliveries == 4 * 2 * FRAMES


@pytest.mark.parametrize("medium_cls", MEDIUMS, ids=lambda cls: cls.__name__)
def test_broadcast_reaches_every_decoder(medium_cls):
    engine, medium, nodes = build(medium_cls)
    frames = [Frame(src=nid % 5, dst=BROADCAST, length_bytes=30) for nid in range(FRAMES)]
    send(engine, medium, frames)
    for nid, node in nodes.items():
        assert node.received == [f for f in frames if f.src != nid]
    assert medium.deliveries == sum(len(node.received) for node in nodes.values())
    assert medium.deliveries == 4 * FRAMES


@pytest.mark.parametrize("medium_cls", MEDIUMS, ids=lambda cls: cls.__name__)
def test_probe_records_overheard_non_ack_frames(medium_cls):
    engine, medium, nodes = build(medium_cls)
    medium.probe = log = RxLog()
    data = Frame(src=0, dst=3, length_bytes=30)
    ack = AckFrame(src=0, dst=2, length_bytes=5)
    beacon = Frame(src=1, dst=BROADCAST, length_bytes=30)
    send(engine, medium, [data, ack, beacon])
    # Overheard data frames are recorded by the medium, in candidate order;
    # the addressed node's record (and every broadcast's) is the MAC's to
    # emit, and acks are never recorded.
    assert [(node, fid) for node, fid, _ in log.records] == [
        (1, data.frame_id),
        (2, data.frame_id),
        (4, data.frame_id),
    ]
    assert nodes[3].received == [data, beacon]
    assert nodes[2].received == [ack, beacon]
