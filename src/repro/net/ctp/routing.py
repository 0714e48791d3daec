"""CTP routing engine (TEP 123) programmed against the four-bit interfaces.

The engine owns parent selection and beaconing.  Its couplings to the link
estimator are exactly the two network-layer bits:

* it **pins** the current parent's table entry (and unpins the old one on a
  switch), so the estimator can never evict the link in use;
* it answers the estimator's **compare-bit** queries: is the route
  advertised by an unknown sender better than the route through at least
  one current table entry?
"""

from __future__ import annotations

import math
from random import Random
from dataclasses import dataclass

from typing import TYPE_CHECKING, Callable, Collection, Dict, Optional, Set, Tuple


from repro.core.interfaces import CompareBitProvider, LinkEstimator
from repro.net.ctp.frames import NO_PARENT, CtpRoutingFrame, make_routing_frame
from repro.net.ctp.trickle import TrickleTimer
from repro.sim.engine import Engine
from repro.sim.packets import RxInfo

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.probe import Monitor


@dataclass(frozen=True)
class CtpRoutingConfig:
    """Routing-engine parameters (TinyOS CTP defaults, scaled to seconds)."""

    beacon_i_min_s: float = 0.125
    beacon_i_max_s: float = 512.0
    #: Hysteresis: switch parents only for a gain of at least this much ETX.
    parent_switch_threshold: float = 1.5
    #: Links whose estimated ETX exceeds this are unusable for routing.
    max_link_etx: float = 10.0
    #: Assumed link ETX of a brand-new candidate during compare-bit queries
    #: (the estimator has no sample yet; one transmission is the floor).
    compare_new_link_etx: float = 1.0
    #: Retry delay when the MAC is busy at beacon time.
    beacon_retry_s: float = 0.030


@dataclass
class RouteInfo:
    """Last route advertisement heard from a neighbor."""

    parent: int
    path_etx: float
    heard_at: float


@dataclass
class RoutingStats:
    beacons_sent: int = 0
    beacons_heard: int = 0
    parent_switches: int = 0
    compare_true: int = 0
    compare_false: int = 0
    loop_signals: int = 0

    METRICS_PREFIX = "net.routing"


class CtpRoutingEngine(CompareBitProvider):
    """Parent selection, beaconing, and the network layer's two bits."""

    def __init__(
        self,
        engine: Engine,
        estimator: LinkEstimator,
        node_id: int,
        is_root: bool,
        rng: Random,
        config: CtpRoutingConfig = CtpRoutingConfig(),
    ) -> None:
        self.engine = engine
        self.estimator = estimator
        self.node_id = node_id
        self.is_root = is_root
        self.rng = rng
        self.config = config
        self.stats = RoutingStats()
        self.route_info: Dict[int, RouteInfo] = {}
        #: Neighbors whose advertised ``(parent, path_etx)`` is new or
        #: changed since the last :meth:`update_route`.
        self._heard: Set[int] = set()
        #: ``(best, best_cost)`` of the last full evaluation that kept the
        #: parent; ``None`` forces the next :meth:`update_route` to scan.
        self._kept: Optional[Tuple[Optional[int], float]] = None
        self.parent: Optional[int] = None
        self._had_route = is_root
        self._pull_pending = False
        self._beacon_retry_pending = False
        #: Failure injection: a crashed routing engine neither beacons nor
        #: keeps route state (see :meth:`fault_shutdown`).
        self.enabled = True
        #: Forwarding engine hooks this to pump its queue when a route appears.
        self.on_route_found: Optional[Callable[[], None]] = None
        #: Observation hook (:mod:`repro.sim.probe`), set by the network.
        self.probe: Optional["Monitor"] = None
        self.trickle = TrickleTimer(
            engine,
            self._send_beacon,
            rng,
            i_min_s=config.beacon_i_min_s,
            i_max_s=config.beacon_i_max_s,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.trickle.start()

    def fault_shutdown(self) -> None:
        """Node crash: stop beaconing and lose all RAM route state.

        The parent is dropped *without* unpinning — the estimator's table
        (which holds the pin) is wiped by the same crash, so there is no
        entry left to unpin; going through ``_set_parent(None)`` would
        touch a dead table.
        """
        self.enabled = False
        self.trickle.stop()
        self.route_info.clear()
        self._kept = None
        old = self.parent
        self.parent = None
        self._had_route = self.is_root
        self._pull_pending = False
        if old is not None and self.probe is not None:
            self.probe.parent_change(self.node_id, old, None)

    def fault_restart(self) -> None:
        """Node reboot: come back with no route and re-bootstrap.

        ``trickle.start()`` restarts at ``i_min`` — exactly a booting node.
        A ``_beacon_retry`` scheduled before the crash may still fire, but
        the retry path is harmless post-reboot (it just beacons).
        """
        self.enabled = True
        self.trickle.start()

    # ------------------------------------------------------------------
    # Route state
    # ------------------------------------------------------------------
    def path_etx(self) -> float:
        """This node's current path ETX to the root."""
        if self.is_root:
            return 0.0
        if self.parent is None:
            return math.inf
        info = self.route_info.get(self.parent)
        if info is None:
            return math.inf
        return self.estimator.link_quality(self.parent) + info.path_etx

    def _route_through(self, neighbor: int) -> float:
        """Cost of routing via ``neighbor`` (inf when unusable)."""
        info = self.route_info.get(neighbor)
        if info is None or math.isinf(info.path_etx):
            return math.inf
        if info.parent == self.node_id:
            return math.inf  # immediate loop
        link = self.estimator.link_quality(neighbor)
        if link > self.config.max_link_etx:
            return math.inf
        return link + info.path_etx

    def update_route(self) -> None:
        """Re-evaluate the parent (hysteresis applies).

        The full evaluation is :meth:`_route_through` inlined over the
        estimator's ``(neighbor, link ETX)`` view: it runs for every beacon
        heard, and the per-neighbor attribute and table lookups dominate
        it.  The skip conditions are exactly the inf-cost cases of
        :meth:`_route_through` (an inf cost can never win ``cost <
        best_cost``).

        Most calls follow a change at one neighbor, or none, so the scan is
        skipped when the changed neighbors cannot move the decision.  A
        full evaluation that keeps the parent stores its first argmin
        ``best`` and ``best_cost``.  A neighbor's cost depends only on its
        entry in the estimator's view and its ``route_info`` record, and
        every change to either is reported:
        :meth:`LinkEstimator.take_changed_neighbors` for the view, and
        ``_heard`` for advertisements.  A later call scans again only if a
        changed neighbor is the parent or ``best``, or its cost is finite
        and ≤ ``best_cost``.  Otherwise the scan would return the same
        result: every unchanged neighbor keeps its cost and its order
        relative to the other unchanged ones (the view only appends and
        deletes), so each one before ``best`` still costs more than
        ``best_cost`` and none after it costs less; every changed neighbor
        costs more than ``best_cost`` or is unusable, so it cannot win or
        tie; the parent's cost is unchanged, so the no-switch decision
        stands.  Ties go to the full scan because table order breaks them.
        A parent switch or :meth:`fault_shutdown` leaves nothing stored, so
        the next call scans.
        """
        if self.is_root:
            return
        changed = self.estimator.take_changed_neighbors()
        heard = self._heard
        kept = self._kept
        if kept is not None and not (
            changed and self._sways(changed, kept) or heard and self._sways(heard, kept)
        ):
            if heard:
                heard.clear()
            return
        heard.clear()
        inf = math.inf
        isinf = math.isinf
        route_info_get = self.route_info.get
        max_link_etx = self.config.max_link_etx
        node_id = self.node_id
        best: Optional[int] = None
        best_cost = inf
        for neighbor, link in self.estimator.neighbor_qualities():
            if link > max_link_etx:
                continue
            info = route_info_get(neighbor)
            if info is None:
                continue
            path_etx = info.path_etx
            if isinf(path_etx) or info.parent == node_id:
                continue
            cost = link + path_etx
            if cost < best_cost:
                best, best_cost = neighbor, cost
        self._kept = (best, best_cost)
        current_cost = self._route_through(self.parent) if self.parent is not None else math.inf
        if best is None:
            return
        switch = False
        if math.isinf(current_cost):
            switch = best is not None
        elif best != self.parent and best_cost + self.config.parent_switch_threshold < current_cost:
            switch = True
        if switch and best != self.parent:
            self._kept = None
            self._set_parent(best)

    def _sways(
        self, neighbors: Collection[int], kept: Tuple[Optional[int], float]
    ) -> bool:
        """Could a changed cost at one of ``neighbors`` move the decision
        stored in ``kept`` (see :meth:`update_route`)?

        The cost test is :meth:`_route_through` inlined: a neighbor whose
        cost is inf can never win or tie.
        """
        best, best_cost = kept
        parent = self.parent
        route_info_get = self.route_info.get
        link_quality = self.estimator.link_quality
        max_link_etx = self.config.max_link_etx
        node_id = self.node_id
        for neighbor in neighbors:
            if neighbor == parent or neighbor == best:
                return True
            info = route_info_get(neighbor)
            if info is None or info.parent == node_id:
                continue
            link = link_quality(neighbor)
            if link > max_link_etx:
                continue
            cost = link + info.path_etx
            if cost <= best_cost and cost < math.inf:
                return True
        return False

    def _set_parent(self, new_parent: Optional[int]) -> None:
        old = self.parent
        if old is not None:
            self.estimator.unpin(old)
        self.parent = new_parent
        if new_parent is not None:
            self.estimator.pin(new_parent)  # the pin bit
            self.stats.parent_switches += 1
            if not self._had_route:
                self._had_route = True
                self.trickle.reset()  # announce first route quickly
                if self.on_route_found is not None:
                    self.on_route_found()
        if self.probe is not None:
            self.probe.parent_change(self.node_id, old, new_parent)

    # ------------------------------------------------------------------
    # Beacons
    # ------------------------------------------------------------------
    def _send_beacon(self) -> None:
        if not self.enabled:
            # Crashed.  Without this guard a failed send (MAC disabled)
            # would self-sustain the ~30 ms retry chain for the whole
            # outage, burning events and RNG draws from a dead node.
            return
        self.update_route()
        frame = make_routing_frame(
            src=self.node_id,
            parent=self.parent if self.parent is not None else NO_PARENT,
            path_etx=self.path_etx(),
            pull=(not self.is_root and self.parent is None) or self._pull_pending,
        )
        if self.estimator.send(frame):
            self.stats.beacons_sent += 1
            self._pull_pending = False
        elif not self._beacon_retry_pending:
            self._beacon_retry_pending = True
            delay = self.rng.uniform(0.5, 1.5) * self.config.beacon_retry_s
            self.engine.schedule(delay, self._beacon_retry)

    def _beacon_retry(self) -> None:
        self._beacon_retry_pending = False
        self._send_beacon()

    def on_beacon_received(self, frame: CtpRoutingFrame, info: RxInfo, le_src: int) -> None:
        """Process a neighbor's routing beacon (via the estimator client)."""
        self.stats.beacons_heard += 1
        info_rec = self.route_info.get(le_src)
        if info_rec is None:
            self.route_info[le_src] = RouteInfo(
                parent=frame.parent,
                path_etx=frame.path_etx,
                heard_at=self.engine.now,
            )
            changed = True
        else:  # overwrite in place (one allocation per neighbor, not per beacon)
            changed = info_rec.parent != frame.parent or info_rec.path_etx != frame.path_etx
            info_rec.parent = frame.parent
            info_rec.path_etx = frame.path_etx
            info_rec.heard_at = self.engine.now
        if changed:
            self._heard.add(le_src)
        if frame.pull and (self.is_root or self.parent is not None):
            self.trickle.reset()
        self.update_route()

    # ------------------------------------------------------------------
    # The compare bit
    # ------------------------------------------------------------------
    def compare_bit(self, frame, info: RxInfo) -> bool:
        """Would the sender's advertised route beat the route through at
        least one current table entry?

        Implemented as the TinyOS 4bitle routing engine does: the candidate's
        advertised path must beat the route we currently use (which is the
        best route any table entry provides — so beating it certainly beats
        "one or more" entries).  When we have no route at all, any finite
        advertised route is better than nothing.  The conservative form is
        deliberate: a looser comparison (beat the *worst* entry) lets every
        fast-trickle beacon flush a random entry and thrashes the table
        before anything matures.
        """
        if not isinstance(frame, CtpRoutingFrame):
            return False
        if math.isinf(frame.path_etx):
            self.stats.compare_false += 1
            return False
        candidate_cost = frame.path_etx + self.config.compare_new_link_etx
        decision = candidate_cost < self.path_etx()
        if decision:
            self.stats.compare_true += 1
        else:
            self.stats.compare_false += 1
        return decision

    # ------------------------------------------------------------------
    # Datapath signals
    # ------------------------------------------------------------------
    def signal_loop_suspected(self) -> None:
        """Forwarding engine saw a cost-gradient violation; beacon fast."""
        self.stats.loop_signals += 1
        self._pull_pending = True
        self.trickle.reset()
