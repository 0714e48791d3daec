"""Applies a :class:`~repro.faults.schedule.FaultSchedule` to a built network.

The injector is constructed by :class:`~repro.sim.network.CollectionNetwork`
before the medium is finalized (so burst interferers get candidate rows) and
armed after boot scheduling.  Every fault lands through the engine's event
queue, and every random draw comes from ``("faults", ...)`` RNG streams —
fault-free runs are untouched, and faulted runs are bit-reproducible.

Crash semantics (what a mote's RAM loss actually wipes):

================  =====================================================
layer             on crash / on reboot
================  =====================================================
medium            none: the node stays attached on both backends, and a
                  frame already on the air still ends and is evaluated
MAC               in-flight frame, timers dropped; radio off → on
estimator         neighbor table, beacon seq, footer rotation wiped
routing           route state and parent wiped; beaconing stopped →
                  restarted as at boot (CTP's trickle at i_min)
forwarding        queue + duplicate cache wiped (``_seq`` survives — the
                  sink dedups on ``(origin, seq)``)
application       source stopped → restarted (fresh send phase)
stats/counters    survive — they are the testbed's serial log, not RAM
================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional, Set

from repro.faults.schedule import (
    FaultSchedule,
    InterferenceBurst,
    LinkBlackout,
    NodeCrash,
    NodeReboot,
    QualityShift,
)
from repro.phy.noise import INTERFERER_ID_BASE, WindowedInterferer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import CollectionNetwork
    from repro.sim.probe import Monitor

#: Fault-scheduled interferers live above the testbed-profile interferers.
FAULT_INTERFERER_ID_BASE = INTERFERER_ID_BASE + 5000


@dataclass
class FaultStats:
    """Injector counters, exported as ``faults.injector.*`` obs metrics."""

    node_crashes: int = 0
    node_reboots: int = 0
    blackouts_started: int = 0
    blackouts_ended: int = 0
    quality_shifts: int = 0
    bursts_started: int = 0
    #: Receptions suppressed by blackout windows (synced from the medium).
    blackout_drops: int = 0

    METRICS_PREFIX = "faults.injector"


class FaultInjector:
    """Schedules and executes the fault events of one run."""

    def __init__(self, network: "CollectionNetwork", schedule: FaultSchedule) -> None:
        self._network = network
        self.schedule = schedule
        self.stats = FaultStats()
        #: Nodes currently down (crash seen, reboot not yet).
        self.crashed: Set[int] = set()
        #: Observation hook (:mod:`repro.sim.probe`), set by the network;
        #: told of each fault as it lands.
        self.probe: Optional["Monitor"] = None
        self._stop_at = network.config.duration_s - network.config.drain_s
        self._armed = False
        self._validate()
        self._faults = network.medium.enable_faults()
        self.burst_interferers: List[WindowedInterferer] = []
        self._build_burst_interferers()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        network = self._network
        roots = set(network.roots)
        for event in self.schedule.events:
            if isinstance(event, (NodeCrash, NodeReboot)):
                if event.node not in network.nodes:
                    raise ValueError(f"fault targets unknown node {event.node}")
                if event.node in roots:
                    raise ValueError(f"cannot crash root node {event.node}")
            elif isinstance(event, (LinkBlackout, QualityShift)):
                for nid in (event.node_a, event.node_b):
                    if nid is not None and nid not in network.nodes:
                        raise ValueError(f"fault targets unknown node {nid}")

    def _build_burst_interferers(self) -> None:
        """One windowed interferer per burst event, attached before the
        medium is finalized so it gets candidate receiver rows."""
        network = self._network
        index = 0
        for event in self.schedule.events:
            if not isinstance(event, InterferenceBurst):
                continue
            nid = FAULT_INTERFERER_ID_BASE + index
            network.channel.add_position(nid, (event.x, event.y))
            self.burst_interferers.append(
                WindowedInterferer(
                    network.engine,
                    network.medium,
                    nid,
                    event.power_dbm,
                    network.rng.stream("faults", "interferer", index),
                    windows=[(event.start_s, event.end_s)],
                )
            )
            index += 1

    def arm(self) -> None:
        """Schedule every fault event into the engine (idempotent)."""
        if self._armed:
            return
        self._armed = True
        engine = self._network.engine
        for event in self.schedule.events:
            if isinstance(event, NodeCrash):
                engine.schedule_at(event.at_s, self._crash, event.node)
                if event.reboot_at_s is not None:
                    engine.schedule_at(event.reboot_at_s, self._reboot, event.node)
            elif isinstance(event, NodeReboot):
                engine.schedule_at(event.at_s, self._reboot, event.node)
            elif isinstance(event, LinkBlackout):
                engine.schedule_at(event.start_s, self._blackout_start, event)
                engine.schedule_at(event.end_s, self._blackout_end, event)
            elif isinstance(event, QualityShift):
                engine.schedule_at(event.at_s, self._quality_shift, event)
            elif isinstance(event, InterferenceBurst):
                engine.schedule_at(event.start_s, self._burst_start, event)
        for interferer in self.burst_interferers:
            interferer.start()

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _wipe(self, node_id: int) -> None:
        """Shared crash/reboot RAM wipe (a reboot is a zero-downtime crash)."""
        node = self._network.nodes[node_id]
        node.mac.shutdown()
        node.protocol.fault_shutdown()
        if node.estimator is not None:
            node.estimator.reset_state()
        if node.source is not None:
            node.source.stop()

    def _crash(self, node_id: int) -> None:
        node = self._network.nodes[node_id]
        node.crashed = True
        self.crashed.add(node_id)
        self.stats.node_crashes += 1
        # Announced before the wipe, so the state losses it causes (the
        # routing layer's parent loss) are observed after it.
        self._emit("crash", node=node_id)
        self._wipe(node_id)

    def _reboot(self, node_id: int) -> None:
        node = self._network.nodes[node_id]
        self._wipe(node_id)
        node.crashed = False
        self.crashed.discard(node_id)
        node.mac.restart()
        node.protocol.fault_restart()
        # Restart traffic unless the drain window has begun (the global
        # stop event at ``duration - drain`` has already fired or will
        # still fire and stop this new epoch correctly either way).
        if node.source is not None and self._network.engine.now < self._stop_at:
            node.source.start()
        self.stats.node_reboots += 1
        self._emit("reboot", node=node_id)

    def _blackout_start(self, event: LinkBlackout) -> None:
        self._faults.blackout_start(event.node_a, event.node_b)
        self.stats.blackouts_started += 1
        self._emit("blackout", a=event.node_a, b=event.node_b)

    def _blackout_end(self, event: LinkBlackout) -> None:
        self._faults.blackout_end(event.node_a, event.node_b)
        self.stats.blackouts_ended += 1
        self._emit("blackout-end", a=event.node_a, b=event.node_b)

    def _quality_shift(self, event: QualityShift) -> None:
        self._faults.shift(event.delta_db, event.node_a, event.node_b)
        self.stats.quality_shifts += 1
        self._emit("quality-shift", delta=event.delta_db, a=event.node_a, b=event.node_b)

    def _burst_start(self, event: InterferenceBurst) -> None:
        # The WindowedInterferer drives the actual traffic; this event is
        # the bookkeeping/observability marker at the window edge.
        self.stats.bursts_started += 1
        self._emit("interference", x=event.x, y=event.y, power=event.power_dbm)

    def _emit(self, kind: str, **fields: Any) -> None:
        if self.probe is not None:
            self.probe.fault(kind, fields)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def synced_stats(self) -> FaultStats:
        """:attr:`stats` with the medium-side counters brought up to date."""
        self.stats.blackout_drops = self._faults.blackout_drops
        return self.stats
