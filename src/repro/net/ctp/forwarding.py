"""CTP forwarding engine: queue, retransmissions, duplicate suppression.

Transmissions go through the link estimator (layer 2.5), so every unicast
attempt automatically feeds the ack bit to the estimator — the datapath
*is* the measurement traffic.  Persistent link failure therefore raises the
estimated ETX, which the routing engine reacts to on the next route
evaluation; no separate "link down" signal is needed.
"""

from __future__ import annotations

import math
from random import Random
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Optional, Tuple

from repro.core.interfaces import LinkEstimator
from repro.net.ctp.frames import CtpDataFrame, make_data_frame
from repro.net.ctp.routing import CtpRoutingEngine
from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.probe import Monitor


@dataclass(frozen=True)
class CtpForwardingConfig:
    """Forwarding-engine parameters (TinyOS CTP defaults)."""

    queue_size: int = 12
    max_retries: int = 30
    #: Retry delay bounds after a failed (unacked) transmission.
    retry_min_s: float = 0.020
    retry_max_s: float = 0.060
    #: Pacing gap between successive successful transmissions.
    pace_min_s: float = 0.002
    pace_max_s: float = 0.010
    #: Wait before re-checking for a route when none exists.
    no_route_retry_s: float = 1.0
    dup_cache_size: int = 32
    max_thl: int = 32


@dataclass
class ForwardingStats:
    """Datapath counters; the cost metric is built from these."""

    generated: int = 0
    tx_attempts: int = 0
    tx_acked: int = 0
    forwarded: int = 0
    delivered_at_root: int = 0
    drops_queue_full: int = 0
    drops_retries: int = 0
    drops_thl: int = 0
    duplicates_suppressed: int = 0

    METRICS_PREFIX = "net.forwarding"


class _QueuedPacket:
    __slots__ = ("origin", "origin_seq", "thl", "retries", "origin_time")

    def __init__(self, origin: int, origin_seq: int, thl: int, origin_time: float = 0.0):
        self.origin = origin
        self.origin_seq = origin_seq
        self.thl = thl
        self.retries = 0
        self.origin_time = origin_time


class CtpForwardingEngine:
    """One node's collection datapath."""

    def __init__(
        self,
        engine: Engine,
        estimator: LinkEstimator,
        routing: CtpRoutingEngine,
        node_id: int,
        rng: Random,
        config: CtpForwardingConfig = CtpForwardingConfig(),
    ) -> None:
        self.engine = engine
        self.estimator = estimator
        self.routing = routing
        self.node_id = node_id
        self.rng = rng
        self.config = config
        self.stats = ForwardingStats()
        self._queue: Deque[_QueuedPacket] = deque()
        self._sending = False
        self._pump_scheduled = False
        self._seq = 0
        self._dup_cache: "OrderedDict[Tuple[int, int], None]" = OrderedDict()
        #: Called at the root for every data frame that reaches it:
        #: (origin, origin_seq, thl, time, origin_time).
        self.on_deliver: Optional[Callable[..., None]] = None
        #: Observation hook (:mod:`repro.sim.probe`), set by the network.
        self.probe: Optional["Monitor"] = None
        routing.on_route_found = self._pump_soon

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    def send_from_app(self) -> bool:
        """Originate one collection packet.  Returns False if queue is full."""
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

    # ------------------------------------------------------------------
    # Receive path (wired by the protocol facade)
    # ------------------------------------------------------------------
    def on_data_received(self, frame: CtpDataFrame) -> None:
        outcome = self._receive(frame)
        probe = self.probe
        if probe is not None:
            probe.pkt_rx(self.node_id, frame, outcome)
            if outcome == "queue-full":
                probe.drop(self.node_id, frame.origin, frame.origin_seq, "queue-full")

    def _receive(self, frame: CtpDataFrame) -> str:
        """Handle one data frame; returns its fate at this node."""
        if self.routing.is_root:
            self.stats.delivered_at_root += 1
            if self.on_deliver is not None:
                self.on_deliver(
                    frame.origin, frame.origin_seq, frame.thl, self.engine.now, frame.origin_time
                )
            return "deliver"
        # Cost-gradient check: a sender claiming a cost no higher than ours
        # routing *to* us indicates stale state somewhere — beacon fast.
        my_cost = self.routing.path_etx()
        if not math.isinf(frame.etx_at_sender) and frame.etx_at_sender <= my_cost:
            self.routing.signal_loop_suspected()
        key = (frame.origin, frame.origin_seq)
        if key in self._dup_cache:
            self.stats.duplicates_suppressed += 1
            return "dup"
        self._remember(key)
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

    def _remember(self, key: Tuple[int, int]) -> None:
        self._dup_cache[key] = None
        while len(self._dup_cache) > self.config.dup_cache_size:
            self._dup_cache.popitem(last=False)

    # ------------------------------------------------------------------
    # Transmit pump
    # ------------------------------------------------------------------
    def _pump_soon(self, delay: Optional[float] = None) -> None:
        if self._pump_scheduled or self._sending:
            return
        self._pump_scheduled = True
        self.engine.schedule(delay if delay is not None else 0.0, self._pump)

    def _pump(self) -> None:
        self._pump_scheduled = False
        if self._sending or not self._queue:
            return
        self.routing.update_route()
        parent = self.routing.parent
        if parent is None:
            self._pump_soon(self.config.no_route_retry_s)
            return
        packet = self._queue[0]
        frame = make_data_frame(
            src=self.node_id,
            dst=parent,
            origin=packet.origin,
            origin_seq=packet.origin_seq,
            thl=packet.thl,
            etx_at_sender=self.routing.path_etx(),
            origin_time=packet.origin_time,
        )
        if self.estimator.send(frame):
            self._sending = True
            self.stats.tx_attempts += 1
        else:
            self._pump_soon(self.rng.uniform(self.config.pace_min_s, self.config.pace_max_s))

    def on_send_done(self, frame: CtpDataFrame, sent: bool, acked: bool) -> None:
        """Completion callback for data frames (from the protocol facade)."""
        self._sending = False
        probe = self.probe
        if probe is not None:
            probe.pkt_tx(self.node_id, frame, sent, acked)
        if not self._queue:
            return
        packet = self._queue[0]
        if acked:
            self.stats.tx_acked += 1
            self._queue.popleft()
            self._pump_soon(self.rng.uniform(self.config.pace_min_s, self.config.pace_max_s))
            return
        packet.retries += 1
        if packet.retries > self.config.max_retries:
            self.stats.drops_retries += 1
            self._queue.popleft()
            if probe is not None:
                probe.drop(self.node_id, packet.origin, packet.origin_seq, "retries")
        self._pump_soon(self.rng.uniform(self.config.retry_min_s, self.config.retry_max_s))

    # ------------------------------------------------------------------
    def fault_shutdown(self) -> None:
        """Node crash: the queue and duplicate cache are RAM — gone.

        ``_seq`` deliberately survives: the sink deduplicates on
        ``(origin, seq)``, so restarting the sequence at 0 would alias the
        reboot's packets with pre-crash deliveries and deflate the measured
        delivery ratio.  (Real motes persist a seed or use boot counters
        for the same reason.)  Any pending ``_pump`` event drains harmlessly
        against the empty queue.
        """
        self._queue.clear()
        self._sending = False
        self._dup_cache.clear()

    # ------------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        return len(self._queue)
