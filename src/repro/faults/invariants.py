"""Structural invariants checked while a simulation runs.

The checker is a :class:`~repro.sim.probe.Monitor` attached to any
:class:`~repro.sim.network.CollectionNetwork`
(``SimConfig(check_invariants=True)``) and asserts, at fault boundaries, on
a periodic timer, and once at the end of the run:

1. **Pin guarantee** — an entry the network layer pinned is never evicted
   from the estimator's neighbor table (only enforced for estimators whose
   config honors the pin bit).  Tracked from the estimator's ``pin``/
   ``unpin`` probe events, so a broken eviction policy is caught even
   though it deletes entries behind the table API's back; an explicit
   ``NeighborTable.remove`` of a pinned entry fails on the spot.
2. **ETX sanity** — every mature estimate is finite and in
   ``[1, max_etx_sample]`` (one transmission is the physical floor; samples
   are capped, and an EWMA of capped samples cannot escape the cap).
3. **Dead nodes are silent** — a node between crash and reboot never puts a
   frame on the air (checked at ``medium.start_transmission``, so a missing
   cancel anywhere in the MAC shows up immediately).
4. **Loop-free routing at quiescence** — at the end of the run the parent
   graph contains no cycle (transient mid-run loops are legal; CTP's cost
   gradient repairs them).

All checks are read-only and consume no RNG, so enabling the checker never
changes simulated behavior — only the engine's event count.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, List, Set

from repro.sim.probe import Monitor

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import CollectionNetwork


class InvariantViolation(AssertionError):
    """A structural invariant failed.  The simulation is not trustworthy."""


class InvariantChecker(Monitor):
    """Asserts structural properties of a running collection network."""

    def __init__(self, network: "CollectionNetwork", period_s: float = 15.0) -> None:
        self.network = network
        self.period_s = period_s
        self.checks_run = 0
        #: Violation messages seen so far (the first one also raises).
        self.violations: List[str] = []
        #: Per pin-honoring node: addresses the network layer has pinned.
        self._expected_pins: Dict[int, Set[int]] = {
            nid: set()
            for nid, node in sorted(network.nodes.items())
            if node.estimator is not None and node.estimator.config.honor_pin_bit
        }
        injector = network.fault_injector
        #: Nodes currently down (the injector's live set; empty without faults).
        self._crashed: Set[int] = injector.crashed if injector is not None else set()
        self._installed = False

    def install(self) -> None:
        """Attach to the network and schedule the periodic checks."""
        if self._installed:
            return
        self._installed = True
        network = self.network
        t = self.period_s
        while t < network.config.duration_s:
            network.engine.schedule_at(t, self.check_now)
            t += self.period_s
        network.attach(self)

    # ------------------------------------------------------------------
    # Monitor events
    # ------------------------------------------------------------------
    def pin(self, node: int, neighbor: int) -> None:
        expected = self._expected_pins.get(node)
        if expected is not None:
            expected.add(neighbor)

    def unpin(self, node: int, neighbor: int) -> None:
        expected = self._expected_pins.get(node)
        if expected is not None:
            expected.discard(neighbor)

    def entry_removed(self, node: int, neighbor: int) -> None:
        if neighbor in self._expected_pins.get(node, ()):
            self._fail(f"node {node}: pinned entry {neighbor} explicitly removed")

    def transmission_start(self, sender: int, frame: Any) -> None:
        if sender in self._crashed:
            self._fail(
                f"dead node {sender} transmitted {type(frame).__name__} "
                f"at t={self.network.engine.now:.6f}"
            )

    def fault(self, kind: str, fields: Dict[str, Any]) -> None:
        if kind in ("crash", "reboot") and fields["node"] in self._expected_pins:
            # The node's RAM (and thus every pin it held) is gone; the
            # expectation resets with it.
            self._expected_pins[fields["node"]].clear()
        self.check_now()

    def run_end(self, network: "CollectionNetwork") -> None:
        self.check_now(final=True)

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def check_now(self, final: bool = False) -> None:
        """Run every applicable invariant; raise on the first batch of
        failures (also recorded in :attr:`violations`)."""
        self.checks_run += 1
        failures: List[str] = []
        self._check_pins(failures)
        self._check_etx(failures)
        if final:
            self._check_loops(failures)
        if failures:
            self.violations.extend(failures)
            raise InvariantViolation("; ".join(failures))

    def _check_pins(self, failures: List[str]) -> None:
        for nid in sorted(self._expected_pins):
            expected = self._expected_pins[nid]
            if not expected:
                continue
            estimator = self.network.nodes[nid].estimator
            assert estimator is not None  # only estimator nodes are tracked
            for addr in sorted(expected):
                entry = estimator.table.find(addr)
                if entry is None:
                    failures.append(
                        f"node {nid}: pinned entry {addr} was evicted from the table"
                    )
                elif not entry.pinned:
                    failures.append(
                        f"node {nid}: entry {addr} lost its pin bit without an unpin"
                    )

    def _check_etx(self, failures: List[str]) -> None:
        for nid in sorted(self.network.nodes):
            estimator = self.network.nodes[nid].estimator
            if estimator is None:
                continue
            cap = estimator.config.max_etx_sample + 1e-9
            for entry in sorted(estimator.table, key=lambda e: e.addr):
                if not entry.mature:
                    continue
                etx = entry.etx
                if math.isnan(etx) or math.isinf(etx):
                    failures.append(f"node {nid}: ETX for {entry.addr} is {etx}")
                elif etx < 1.0 - 1e-9:
                    failures.append(
                        f"node {nid}: ETX for {entry.addr} is {etx:.4f} < 1"
                    )
                elif etx > cap:
                    failures.append(
                        f"node {nid}: ETX for {entry.addr} is {etx:.4f} > sample cap"
                    )

    def _check_loops(self, failures: List[str]) -> None:
        parents = self.network.parent_map()
        roots = set(self.network.roots)
        for nid in sorted(parents):
            cursor = parents.get(nid)
            seen = {nid}
            while cursor is not None and cursor not in roots:
                if cursor in seen:
                    failures.append(f"routing loop through node {cursor} at quiescence")
                    break
                seen.add(cursor)
                cursor = parents.get(cursor)

    def _fail(self, message: str) -> None:
        self.violations.append(message)
        raise InvariantViolation(message)
