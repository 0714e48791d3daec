"""Greedy geographic routing on the four-bit interfaces.

Section 2.3 of the paper argues the network layer knows *which* links are
valuable: geographic routing wants neighbors spread toward the
destination.  This module demonstrates the claimed protocol independence
of the estimator — a completely different network layer reusing the same
:class:`~repro.core.interfaces.LinkEstimator` unchanged:

* beacons advertise the sender's **position** instead of a path metric;
* the next hop is the table neighbor closest to the sink among those with
  a usable link (greedy forwarding; no perimeter mode — adequate on the
  dense testbeds simulated here);
* the **pin bit** protects the current next hop;
* the **compare bit** answers "is the sender closer to the sink than my
  current next hop?" — route utility expressed in distance.

The datapath reuses :class:`~repro.net.ctp.forwarding.CtpForwardingEngine`
unmodified (it only needs a routing engine exposing ``parent``,
``path_etx`` — here the remaining distance — and the loop signal), which
is itself a small proof of the architecture's composability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.core.interfaces import CompareBitProvider, EstimatorClient, LinkEstimator
from repro.link.frame import BROADCAST, NetworkFrame
from repro.net.ctp.forwarding import CtpForwardingConfig, CtpForwardingEngine
from repro.net.ctp.frames import CtpDataFrame
from repro.net.ctp.protocol import CollectionStack
from repro.sim.engine import Engine, EventHandle
from repro.sim.packets import RxInfo

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.probe import Monitor

Position = Tuple[float, float]

#: Geo beacon: options(1) + x(4) + y(4).
GEO_BEACON_BYTES = 15


@dataclass
class GeoBeaconFrame(NetworkFrame):
    """Routing beacon advertising the sender's position."""

    position: Position = (0.0, 0.0)

    def describe(self) -> str:
        return f"GeoBeacon({self.position[0]:.1f},{self.position[1]:.1f})"


@dataclass(frozen=True)
class GeoConfig:
    """Greedy-geographic-routing parameters."""

    beacon_period_s: float = 30.0
    beacon_jitter_s: float = 4.0
    first_beacon_max_s: float = 2.0
    #: Links above this estimated ETX are not greedy candidates.
    max_link_etx: float = 4.0
    #: A candidate must be at least this much closer to the sink (meters).
    progress_margin_m: float = 0.5


class GreedyGeoRouting(CompareBitProvider):
    """Next-hop selection by greedy geographic progress."""

    def __init__(
        self,
        engine: Engine,
        estimator,
        node_id: int,
        position: Position,
        sink_position: Position,
        is_root: bool,
        rng: Random,
        config: GeoConfig = GeoConfig(),
    ) -> None:
        self.engine = engine
        self.estimator = estimator
        self.node_id = node_id
        self.position = position
        self.sink_position = sink_position
        self.is_root = is_root
        self.rng = rng
        self.config = config
        self.neighbor_positions: Dict[int, Position] = {}
        self.parent: Optional[int] = None
        #: The pending beacon tick (None while crashed).
        self._beacon: Optional[EventHandle] = None
        self.on_route_found: Optional[Callable[[], None]] = None
        #: Observation hook (:mod:`repro.sim.probe`), set by the network.
        self.probe: Optional["Monitor"] = None
        self.beacons_sent = 0
        self.parent_switches = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Boot: begin periodic position beacons."""
        delay = self.rng.uniform(0.1, self.config.first_beacon_max_s)
        self._beacon = self.engine.schedule(delay, self._beacon_tick)

    def fault_shutdown(self) -> None:
        """Node crash: stop beaconing, forget neighbor positions and the
        next hop.  The next hop is dropped without an unpin: the same
        crash wipes the estimator's table, which holds the pin."""
        if self._beacon is not None:
            self._beacon.cancel()
            self._beacon = None
        self.neighbor_positions.clear()
        old = self.parent
        self.parent = None
        if old is not None and self.probe is not None:
            self.probe.parent_change(self.node_id, old, None)

    def fault_restart(self) -> None:
        """Node reboot: beacon again as a booting node does."""
        self.start()

    def _distance_to_sink(self, pos: Position) -> float:
        return math.hypot(pos[0] - self.sink_position[0], pos[1] - self.sink_position[1])

    def path_etx(self) -> float:
        """Remaining geographic distance (the engine's cost gradient)."""
        if self.is_root:
            return 0.0
        if self.parent is None:
            return math.inf
        return self._distance_to_sink(self.position)

    # ------------------------------------------------------------------
    def _beacon_tick(self) -> None:
        frame = GeoBeaconFrame(
            src=self.node_id,
            dst=BROADCAST,
            length_bytes=GEO_BEACON_BYTES,
            carries_route_info=True,
            position=self.position,
        )
        if self.estimator.send(frame):
            self.beacons_sent += 1
        period = self.config.beacon_period_s + self.rng.uniform(0, self.config.beacon_jitter_s)
        self._beacon = self.engine.schedule(period, self._beacon_tick)

    def on_beacon_received(self, frame: GeoBeaconFrame, info: RxInfo, le_src: int) -> None:
        """Learn a neighbor's position and re-evaluate the next hop."""
        self.neighbor_positions[le_src] = frame.position
        self.update_route()

    # ------------------------------------------------------------------
    def update_route(self) -> None:
        """Greedy: the usable table neighbor closest to the sink."""
        if self.is_root:
            return
        my_distance = self._distance_to_sink(self.position)
        best: Optional[int] = None
        best_distance = my_distance - self.config.progress_margin_m
        for neighbor in self.estimator.neighbors():
            pos = self.neighbor_positions.get(neighbor)
            if pos is None:
                continue
            if self.estimator.link_quality(neighbor) > self.config.max_link_etx:
                continue
            d = self._distance_to_sink(pos)
            if d < best_distance:
                best, best_distance = neighbor, d
        if best is not None and best != self.parent:
            old = self.parent
            if old is not None:
                self.estimator.unpin(old)
            self.parent = best
            self.estimator.pin(best)
            self.parent_switches += 1
            if old is None and self.on_route_found is not None:
                self.on_route_found()
            if self.probe is not None:
                self.probe.parent_change(self.node_id, old, best)

    # ------------------------------------------------------------------
    def compare_bit(self, frame: NetworkFrame, info: RxInfo) -> bool:
        """Does the sender offer more geographic progress than the current
        next hop (or any progress, when there is none)?"""
        if not isinstance(frame, GeoBeaconFrame):
            return False
        candidate = self._distance_to_sink(frame.position)
        if self.parent is None:
            return candidate < self._distance_to_sink(self.position) - self.config.progress_margin_m
        current = self.neighbor_positions.get(self.parent)
        if current is None:
            return True
        return candidate < self._distance_to_sink(current) - self.config.progress_margin_m

    def signal_loop_suspected(self) -> None:
        """Greedy progress is loop-free by construction; re-evaluate anyway."""
        self.update_route()


class GreedyGeoProtocol(CollectionStack, EstimatorClient):
    """A node's full geographic-collection stack above the link estimator."""

    def __init__(
        self,
        engine: Engine,
        estimator: LinkEstimator,
        node_id: int,
        position: Position,
        sink_position: Position,
        is_root: bool,
        rng: Random,
        config: GeoConfig = GeoConfig(),
        forwarding_config: CtpForwardingConfig = CtpForwardingConfig(),
    ) -> None:
        self.node_id = node_id
        self.estimator = estimator
        self.routing = GreedyGeoRouting(
            engine, estimator, node_id, position, sink_position, is_root, rng, config
        )
        self.forwarding = CtpForwardingEngine(
            engine, estimator, self.routing, node_id, rng, forwarding_config
        )
        estimator.client = self
        estimator.compare_provider = self.routing

    def send_from_app(self) -> bool:
        """Originate one collection packet (False if the queue is full)."""
        return self.forwarding.send_from_app()

    def stats_objects(self) -> Tuple[Any, ...]:
        """The stack's stats dataclasses (the router keeps bare counters)."""
        return (self.forwarding.stats,)

    # -- EstimatorClient --------------------------------------------------
    def on_receive(self, frame: NetworkFrame, info: RxInfo, le_src: int) -> None:
        """EstimatorClient: dispatch beacons vs data frames."""
        if isinstance(frame, GeoBeaconFrame):
            self.routing.on_beacon_received(frame, info, le_src)
        elif isinstance(frame, CtpDataFrame):
            self.forwarding.on_data_received(frame)

    def on_send_done(self, frame: NetworkFrame, sent: bool, acked: bool) -> None:
        """EstimatorClient: route data completions to the forwarding engine."""
        if isinstance(frame, CtpDataFrame):
            self.forwarding.on_send_done(frame, sent, acked)
