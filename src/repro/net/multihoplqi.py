"""MultiHopLQI: the state-of-the-art baseline the paper compares against.

A faithful port of the TinyOS ``MultiHopLQI`` collection protocol: each
node periodically broadcasts a beacon advertising its path cost; receivers
derive the link cost from the **LQI of that single received beacon** via
the cubic ``adjustLQI`` mapping and keep one best parent.  Data is unicast
to the parent with a small retransmission budget and *no* feedback into
the route cost — exactly the blindness Figures 3 and 8 demonstrate: when a
link's PRR collapses but surviving packets still carry high LQI, the
protocol keeps hammering the same parent.
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING, Any, Callable, Deque, Optional, Tuple

from repro.link.frame import BROADCAST, NetworkFrame

# MultiHopLQI is the paper's LQI-blind *monolithic* baseline: it owns the MAC
# directly and bypasses the estimator stack on purpose, so this is the one
# sanctioned breach of the four-bit layering contract.
from repro.link.mac import Mac  # lint: disable=layering
from repro.sim.engine import Engine
from repro.sim.packets import RxInfo, TxResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.probe import Monitor

#: Beacon: options(1) + parent(2) + cost(2) + hopcount(1).
BEACON_FRAME_BYTES = 14
#: Data frame, sized like CTP's for a fair cost comparison.
DATA_FRAME_BYTES = 36


def adjust_lqi(lqi: int) -> int:
    """The TinyOS MultiHopLQI link-cost mapping (cubic in 80 − (LQI − 50)).

    LQI 110 (clean channel) → 125; LQI 50 (barely decodable) → 8000.
    """
    clamped = min(max(lqi, 50), 110)
    r = 80 - (clamped - 50)
    return (((r * r) >> 3) * r) >> 3


@dataclass
class LqiBeaconFrame(NetworkFrame):
    """Route beacon advertising the sender's path cost to the root."""

    path_cost: float = math.inf

    def describe(self) -> str:
        return f"LqiBeacon(cost={self.path_cost:.0f})"


@dataclass
class LqiDataFrame(NetworkFrame):
    """Collection data frame."""

    origin: int = 0
    origin_seq: int = 0
    thl: int = 0
    #: Origination time (end-to-end latency instrumentation).
    origin_time: float = 0.0

    def describe(self) -> str:
        return f"LqiData(origin={self.origin}, seq={self.origin_seq})"


@dataclass(frozen=True)
class MhlqiConfig:
    """MultiHopLQI parameters (TinyOS defaults, scaled to seconds)."""

    beacon_period_s: float = 32.0
    beacon_jitter_s: float = 4.0
    first_beacon_max_s: float = 2.0
    #: Switch parents only when the new cost is below this fraction of the
    #: current one (the TinyOS ``cost − cost/4`` rule ⇒ 0.75).
    switch_factor: float = 0.75
    #: Declare the parent dead after this many silent beacon periods.
    parent_timeout_periods: int = 5
    max_retries: int = 5
    queue_size: int = 12
    dup_cache_size: int = 32
    max_thl: int = 32
    retry_min_s: float = 0.020
    retry_max_s: float = 0.060
    pace_min_s: float = 0.002
    pace_max_s: float = 0.010
    no_route_retry_s: float = 1.0

    @staticmethod
    def scaled_for(radio_params, data_bytes: int = 36) -> "MhlqiConfig":
        """Retry/pacing delays scaled to the radio's data airtime (see
        :meth:`repro.net.ctp.protocol.CtpConfig.scaled_for`)."""
        airtime = radio_params.airtime(data_bytes)
        return MhlqiConfig(
            retry_min_s=12.5 * airtime,
            retry_max_s=37.5 * airtime,
            pace_min_s=1.25 * airtime,
            pace_max_s=6.25 * airtime,
        )


@dataclass
class MhlqiStats:
    """Counters for one node's MultiHopLQI stack."""

    beacons_sent: int = 0
    beacons_heard: int = 0
    parent_switches: int = 0
    generated: int = 0
    forwarded: int = 0
    tx_attempts: int = 0
    tx_acked: int = 0
    tx_unacked: int = 0
    delivered_at_root: int = 0
    drops_queue_full: int = 0
    drops_retries: int = 0
    drops_thl: int = 0
    duplicates_suppressed: int = 0

    METRICS_PREFIX = "net.mhlqi"


class _QueuedPacket:
    __slots__ = ("origin", "origin_seq", "thl", "retries", "origin_time")

    def __init__(self, origin: int, origin_seq: int, thl: int, origin_time: float = 0.0):
        self.origin = origin
        self.origin_seq = origin_seq
        self.thl = thl
        self.retries = 0
        self.origin_time = origin_time


class MultiHopLqi:
    """One node's complete MultiHopLQI stack (owns the MAC directly)."""

    def __init__(
        self,
        engine: Engine,
        mac: Mac,
        node_id: int,
        is_root: bool,
        rng: Random,
        config: MhlqiConfig = MhlqiConfig(),
    ) -> None:
        self.engine = engine
        self.mac = mac
        self.node_id = node_id
        self.is_root = is_root
        self.rng = rng
        self.config = config
        self.stats = MhlqiStats()
        self.parent: Optional[int] = None
        self.path_cost: float = 0.0 if is_root else math.inf
        self._last_parent_heard = -math.inf
        self._queue: Deque[_QueuedPacket] = deque()
        self._sending_data = False
        self._pump_scheduled = False
        self._seq = 0
        self._dup_cache: "OrderedDict[Tuple[int, int], None]" = OrderedDict()
        self.on_deliver: Optional[Callable[..., None]] = None
        #: Observation hook (:mod:`repro.sim.probe`), set by the network.
        self.probe: Optional["Monitor"] = None
        mac.on_receive = self._mac_receive
        mac.on_send_done = self._mac_send_done

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Boot: begin periodic beacons."""
        self.engine.schedule(self.rng.uniform(0.1, self.config.first_beacon_max_s), self._beacon_tick)

    def layers(self) -> Tuple[Any, ...]:
        """The stack's probe-carrying layer objects (it is monolithic)."""
        return (self,)

    def stats_objects(self) -> Tuple[Any, ...]:
        """The stack's stats dataclasses."""
        return (self.stats,)

    # ------------------------------------------------------------------
    # Beaconing / route maintenance
    # ------------------------------------------------------------------
    def _beacon_tick(self) -> None:
        self._check_parent_timeout()
        frame = LqiBeaconFrame(
            src=self.node_id,
            dst=BROADCAST,
            length_bytes=BEACON_FRAME_BYTES,
            carries_route_info=True,
            path_cost=self.path_cost,
        )
        if self.mac.send(frame):
            self.stats.beacons_sent += 1
        period = self.config.beacon_period_s + self.rng.uniform(0, self.config.beacon_jitter_s)
        self.engine.schedule(period, self._beacon_tick)

    def _check_parent_timeout(self) -> None:
        if self.is_root or self.parent is None:
            return
        timeout = self.config.parent_timeout_periods * self.config.beacon_period_s
        if self.engine.now - self._last_parent_heard > timeout:
            old = self.parent
            self.parent = None
            self.path_cost = math.inf
            if self.probe is not None:
                self.probe.parent_change(self.node_id, old, None)

    def _on_beacon(self, frame: LqiBeaconFrame, info: RxInfo) -> None:
        self.stats.beacons_heard += 1
        if self.is_root:
            return
        if math.isinf(frame.path_cost):
            return
        cost_via = frame.path_cost + adjust_lqi(info.lqi)
        if frame.src == self.parent:
            # Refresh: track the parent's advertised cost as it changes.
            self.path_cost = cost_via
            self._last_parent_heard = info.timestamp
            return
        if self.parent is None or cost_via < self.config.switch_factor * self.path_cost:
            old = self.parent
            self.parent = frame.src
            self.path_cost = cost_via
            self._last_parent_heard = info.timestamp
            self.stats.parent_switches += 1
            if old is None:
                self._pump_soon()
            if self.probe is not None:
                self.probe.parent_change(self.node_id, old, frame.src)

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def send_from_app(self) -> bool:
        """Originate one collection packet (False if the queue is full)."""
        if len(self._queue) >= self.config.queue_size:
            self.stats.drops_queue_full += 1
            return False
        self.stats.generated += 1
        self._queue.append(
            _QueuedPacket(self.node_id, self._seq, thl=0, origin_time=self.engine.now)
        )
        if self.probe is not None:
            self.probe.pkt_orig(self.node_id, self._seq)
        self._seq += 1
        self._pump_soon()
        return True

    def _on_data(self, frame: LqiDataFrame) -> None:
        outcome = self._receive_data(frame)
        probe = self.probe
        if probe is not None:
            probe.pkt_rx(self.node_id, frame, outcome)
            if outcome == "queue-full":
                probe.drop(self.node_id, frame.origin, frame.origin_seq, "queue-full")

    def _receive_data(self, frame: LqiDataFrame) -> str:
        """Handle one data frame; returns its fate at this node."""
        if self.is_root:
            self.stats.delivered_at_root += 1
            if self.on_deliver is not None:
                self.on_deliver(
                    frame.origin, frame.origin_seq, frame.thl, self.engine.now, frame.origin_time
                )
            return "deliver"
        key = (frame.origin, frame.origin_seq)
        if key in self._dup_cache:
            self.stats.duplicates_suppressed += 1
            return "dup"
        self._dup_cache[key] = None
        while len(self._dup_cache) > self.config.dup_cache_size:
            self._dup_cache.popitem(last=False)
        if frame.thl + 1 > self.config.max_thl:
            self.stats.drops_thl += 1
            return "drop-thl"
        if len(self._queue) >= self.config.queue_size:
            self.stats.drops_queue_full += 1
            return "queue-full"
        self.stats.forwarded += 1
        self._queue.append(
            _QueuedPacket(frame.origin, frame.origin_seq, frame.thl + 1, frame.origin_time)
        )
        self._pump_soon()
        return "forward"

    def _pump_soon(self, delay: float = 0.0) -> None:
        if self._pump_scheduled or self._sending_data:
            return
        self._pump_scheduled = True
        self.engine.schedule(delay, self._pump)

    def _pump(self) -> None:
        self._pump_scheduled = False
        if self._sending_data or not self._queue:
            return
        self._check_parent_timeout()
        if self.parent is None:
            self._pump_soon(self.config.no_route_retry_s)
            return
        packet = self._queue[0]
        frame = LqiDataFrame(
            src=self.node_id,
            dst=self.parent,
            length_bytes=DATA_FRAME_BYTES,
            origin=packet.origin,
            origin_seq=packet.origin_seq,
            thl=packet.thl,
            origin_time=packet.origin_time,
        )
        if self.mac.send(frame):
            self._sending_data = True
            self.stats.tx_attempts += 1
        else:
            self._pump_soon(self.rng.uniform(self.config.pace_min_s, self.config.pace_max_s))

    # ------------------------------------------------------------------
    # MAC callbacks
    # ------------------------------------------------------------------
    def _mac_receive(self, frame, info: RxInfo) -> None:
        if isinstance(frame, LqiBeaconFrame):
            self._on_beacon(frame, info)
        elif isinstance(frame, LqiDataFrame):
            self._on_data(frame)

    def _mac_send_done(self, frame, result: TxResult) -> None:
        if not isinstance(frame, LqiDataFrame):
            return  # beacon completion
        self._sending_data = False
        probe = self.probe
        if probe is not None:
            probe.pkt_tx(self.node_id, frame, result.sent, result.ack_bit)
        if not self._queue:
            return
        packet = self._queue[0]
        if result.ack_bit:
            self.stats.tx_acked += 1
            self._queue.popleft()
            self._pump_soon(self.rng.uniform(self.config.pace_min_s, self.config.pace_max_s))
            return
        self.stats.tx_unacked += 1
        packet.retries += 1
        if packet.retries > self.config.max_retries:
            self.stats.drops_retries += 1
            self._queue.popleft()
            if probe is not None:
                probe.drop(self.node_id, packet.origin, packet.origin_seq, "retries")
        self._pump_soon(self.rng.uniform(self.config.retry_min_s, self.config.retry_max_s))
