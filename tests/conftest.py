"""Shared fixtures and tiny fakes used across the suite."""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

import pytest

from repro.link.frame import BROADCAST, Frame
from repro.phy.radio import CC2420, Radio
from repro.sim.engine import Engine
from repro.sim.packets import RxInfo
from repro.sim.rng import RngManager


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def rng_mgr() -> RngManager:
    return RngManager(12345)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(999)


def make_rx_info(
    timestamp: float = 0.0,
    snr_db: float = 10.0,
    lqi: int = 106,
    white_bit: bool = True,
    rssi_dbm: float = -70.0,
) -> RxInfo:
    return RxInfo(
        timestamp=timestamp,
        rssi_dbm=rssi_dbm,
        snr_db=snr_db,
        lqi=lqi,
        white_bit=white_bit,
    )


class PerfectMedium:
    """A loss-free, instantaneous-ish medium for MAC/estimator unit tests.

    Frames are delivered to every *other* attached participant after their
    airtime; per-link delivery can be overridden with ``drop(src, dst)``.
    """

    def __init__(self, engine: Engine, rx_info_factory: Optional[Callable[[], RxInfo]] = None):
        self.engine = engine
        self._participants = {}
        self._drops = set()
        self._busy_nodes = set()
        self.rx_info_factory = rx_info_factory or (lambda: make_rx_info())
        self.log: List[Tuple[float, int, Frame]] = []
        #: Observation hook, called like the real mediums' (transmission_start).
        self.probe = None

    def attach(self, participant, receiver: bool = True) -> None:
        self._participants[participant.node_id] = participant

    def finalize(self) -> None:
        pass

    def drop(self, src: int, dst: int) -> None:
        self._drops.add((src, dst))

    def undrop(self, src: int, dst: int) -> None:
        self._drops.discard((src, dst))

    def set_busy(self, node_id: int, busy: bool = True) -> None:
        if busy:
            self._busy_nodes.add(node_id)
        else:
            self._busy_nodes.discard(node_id)

    def channel_clear(self, node_id: int) -> bool:
        return node_id not in self._busy_nodes

    def is_transmitting(self, node_id: int) -> bool:
        return False

    def start_transmission(self, sender_id: int, frame: Frame) -> float:
        sender = self._participants[sender_id]
        duration = sender.radio.params.airtime(frame.length_bytes)
        if self.probe is not None:
            self.probe.transmission_start(sender_id, frame)
        self.log.append((self.engine.now, sender_id, frame))
        self.engine.schedule(duration, self._deliver, sender_id, frame)
        return duration

    def _deliver(self, sender_id: int, frame: Frame) -> None:
        for nid, participant in self._participants.items():
            if nid == sender_id or (sender_id, nid) in self._drops:
                continue
            handler = getattr(participant, "on_frame_received", None)
            if handler is not None:
                info = self.rx_info_factory()
                # Refresh the timestamp so probes see simulated time.
                info = RxInfo(
                    timestamp=self.engine.now,
                    rssi_dbm=info.rssi_dbm,
                    snr_db=info.snr_db,
                    lqi=info.lqi,
                    white_bit=info.white_bit,
                )
                handler(frame, info)


def make_radio(node_id: int, tx_power_dbm: float = 0.0) -> Radio:
    return Radio(node_id=node_id, params=CC2420, tx_power_dbm=tx_power_dbm)


@pytest.fixture
def perfect_medium(engine) -> PerfectMedium:
    return PerfectMedium(engine)
