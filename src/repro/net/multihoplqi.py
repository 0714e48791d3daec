"""MultiHopLQI: the state-of-the-art baseline the paper compares against.

A faithful port of the TinyOS ``MultiHopLQI`` collection protocol: each
node periodically broadcasts a beacon advertising its path cost; receivers
derive the link cost from the **LQI of that single received beacon** via
the cubic ``adjustLQI`` mapping and keep one best parent.  Data is unicast
to the parent with a small retransmission budget and *no* feedback into
the route cost — exactly the blindness Figures 3 and 8 demonstrate: when a
link's PRR collapses but surviving packets still carry high LQI, the
protocol keeps hammering the same parent.

Only the route choice is MultiHopLQI's own (:class:`MhlqiRouting`).  Data
moves through CTP's :class:`~repro.net.ctp.forwarding.CtpForwardingEngine`,
sent straight on the MAC, so the cost comparison against 4B on CTP differs
in parent selection alone.  A crash wipes both halves the way it wipes
CTP's (``CollectionStack.fault_shutdown``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from random import Random
from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple

from repro.link.frame import BROADCAST, NetworkFrame

# MultiHopLQI is the paper's LQI-blind *monolithic* baseline: it owns the MAC
# directly and bypasses the estimator stack on purpose, so this is the one
# sanctioned breach of the four-bit layering contract.
from repro.link.mac import Mac  # lint: disable=layering
from repro.net.ctp.forwarding import CtpForwardingConfig, CtpForwardingEngine
from repro.net.ctp.frames import CtpDataFrame
from repro.net.ctp.protocol import CollectionStack
from repro.sim.engine import Engine, EventHandle
from repro.sim.packets import RxInfo, TxResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.probe import Monitor

#: Beacon: options(1) + parent(2) + cost(2) + hopcount(1).
BEACON_FRAME_BYTES = 14


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

    def __post_init__(self) -> None:
        self.forwarding_config()  # validates the datapath fields
        # Negated comparisons: NaN fails every one of them.
        for name, ok, rule in (
            ("beacon_period_s", 0.0 < self.beacon_period_s < math.inf, "finite and > 0"),
            ("beacon_jitter_s", 0.0 <= self.beacon_jitter_s < math.inf, "finite and >= 0"),
            ("first_beacon_max_s", 0.1 <= self.first_beacon_max_s < math.inf, "finite and >= 0.1"),
            ("switch_factor", 0.0 < self.switch_factor <= 1.0, "in (0, 1]"),
            ("parent_timeout_periods", self.parent_timeout_periods >= 1, ">= 1"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}: {getattr(self, name)!r}")

    def forwarding_config(self) -> CtpForwardingConfig:
        """The datapath fields (all of the forwarding engine's, by name)."""
        names = [f.name for f in fields(CtpForwardingConfig)]
        return CtpForwardingConfig(**{name: getattr(self, name) for name in names})

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
    """Route counters of one node (the forwarding engine keeps the datapath's)."""

    beacons_sent: int = 0
    beacons_heard: int = 0
    parent_switches: int = 0

    METRICS_PREFIX = "net.mhlqi"


class MhlqiRouting:
    """Parent selection: beacons, the ``adjustLQI`` cost, the switch rule
    and the parent timeout."""

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
        #: The pending beacon tick (None while crashed).
        self._beacon: Optional[EventHandle] = None
        self.on_route_found: Optional[Callable[[], None]] = None
        #: Observation hook (:mod:`repro.sim.probe`), set by the network.
        self.probe: Optional["Monitor"] = None

    def start(self) -> None:
        """Boot: begin periodic beacons."""
        delay = self.rng.uniform(0.1, self.config.first_beacon_max_s)
        self._beacon = self.engine.schedule(delay, self._beacon_tick)

    def fault_shutdown(self) -> None:
        """Node crash: stop beaconing and lose the route (RAM state)."""
        if self._beacon is not None:
            self._beacon.cancel()
            self._beacon = None
        old = self.parent
        self.parent = None
        self.path_cost = math.inf
        self._last_parent_heard = -math.inf
        if old is not None and self.probe is not None:
            self.probe.parent_change(self.node_id, old, None)

    def fault_restart(self) -> None:
        """Node reboot: beacon again as a booting node does."""
        self.start()

    def path_etx(self) -> float:
        """The path cost, in ``adjustLQI`` units rather than ETX."""
        return self.path_cost

    def signal_loop_suspected(self) -> None:
        """MultiHopLQI has no datapath loop check."""

    def _beacon_tick(self) -> None:
        self.update_route()
        frame = LqiBeaconFrame(
            src=self.node_id, dst=BROADCAST, length_bytes=BEACON_FRAME_BYTES,
            carries_route_info=True, path_cost=self.path_cost,
        )
        if self.mac.send(frame):
            self.stats.beacons_sent += 1
        period = self.config.beacon_period_s + self.rng.uniform(0, self.config.beacon_jitter_s)
        self._beacon = self.engine.schedule(period, self._beacon_tick)

    def update_route(self) -> None:
        """Drop a parent silent for ``parent_timeout_periods`` beacon periods."""
        if self.is_root or self.parent is None:
            return
        timeout = self.config.parent_timeout_periods * self.config.beacon_period_s
        if self.engine.now - self._last_parent_heard > timeout:
            old = self.parent
            self.parent = None
            self.path_cost = math.inf
            if self.probe is not None:
                self.probe.parent_change(self.node_id, old, None)

    def on_beacon_received(self, frame: LqiBeaconFrame, info: RxInfo) -> None:
        """Refresh the parent's cost, or switch for a much cheaper route."""
        self.stats.beacons_heard += 1
        if self.is_root or math.isinf(frame.path_cost):
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
            if old is None and self.on_route_found is not None:
                self.on_route_found()
            if self.probe is not None:
                self.probe.parent_change(self.node_id, old, frame.src)


class MultiHopLqi(CollectionStack):
    """One node's MultiHopLQI stack, on the MAC directly (no estimator)."""

    def __init__(
        self,
        engine: Engine,
        mac: Mac,
        node_id: int,
        is_root: bool,
        rng: Random,
        config: MhlqiConfig = MhlqiConfig(),
    ) -> None:
        self.routing = MhlqiRouting(engine, mac, node_id, is_root, rng, config)
        self.forwarding = CtpForwardingEngine(
            engine, mac, self.routing, node_id, rng, config.forwarding_config()
        )
        mac.on_receive = self._mac_receive
        mac.on_send_done = self._mac_send_done

    def send_from_app(self) -> bool:
        """Originate one collection packet (False if the queue is full)."""
        return self.forwarding.send_from_app()

    def stats_objects(self) -> Tuple[Any, ...]:
        """The stack's stats dataclasses, in report order."""
        return (self.routing.stats, self.forwarding.stats)

    # -- MAC callbacks ----------------------------------------------------
    def _mac_receive(self, frame: NetworkFrame, info: RxInfo) -> None:
        if isinstance(frame, LqiBeaconFrame):
            self.routing.on_beacon_received(frame, info)
        elif isinstance(frame, CtpDataFrame):
            self.forwarding.on_data_received(frame)

    def _mac_send_done(self, frame: NetworkFrame, result: TxResult) -> None:
        # Beacons are fire-and-forget broadcasts.
        if isinstance(frame, CtpDataFrame):
            self.forwarding.on_send_done(frame, result.sent, result.ack_bit)
