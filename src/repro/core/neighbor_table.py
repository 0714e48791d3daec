"""The link estimator's neighbor table (Woo et al. management, + pin bit).

RAM limits on sensornet hardware cap the table at a handful of entries
(default 10, matching the paper's prototype), so *which* links get a slot
matters as much as how well they are estimated.  The pin bit lets the
network layer protect in-use entries; the compare-driven replacement policy
(implemented in :mod:`repro.core.estimator`) evicts a **random unpinned**
entry when a promising newcomer arrives.
"""

from __future__ import annotations

import math
from random import Random
from dataclasses import dataclass

from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Set

from repro.core.ewma import Ewma

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.probe import Monitor


@dataclass
class NeighborEntry:
    """Estimator state for one candidate link."""

    addr: int
    #: The pin bit (network layer owns it).
    pinned: bool = False
    # ---- beacon (broadcast) stream ----
    beacon_received: int = 0
    beacon_missed: int = 0
    #: Expected beacons (received + missed) since the entry was inserted.
    #: Ages entries that never produce a usable estimate (Woo et al.'s
    #: frequency-based table management): a slot should not be held forever
    #: by a neighbor whose reverse direction is never learned.
    expected_since_insert: int = 0
    last_seq: Optional[int] = None
    prr_ewma: Optional[Ewma] = None
    #: Outbound PRR advertised by the neighbor (bidirectional baselines only;
    #: learned from link-estimator beacon footers).
    prr_out: Optional[float] = None
    # ---- unicast (data) stream ----
    uni_total: int = 0
    uni_acked: int = 0
    fails_since_last_ack: int = 0
    # ---- hybrid output ----
    etx_ewma: Optional[Ewma] = None

    @property
    def mature(self) -> bool:
        """True once at least one ETX sample has been folded in."""
        ewma = self.etx_ewma
        return ewma is not None and ewma._initialized

    @property
    def etx(self) -> float:
        """Current hybrid ETX, or +inf before the first sample.

        The owning table mirrors this value in its ``etx`` view, which the
        routing hot path reads instead.
        """
        ewma = self.etx_ewma
        if ewma is None or not ewma._initialized:
            return math.inf
        return ewma._value


class NeighborTable:
    """Fixed-capacity neighbor table with pin-aware eviction.

    ``capacity=None`` models the "CTP unconstrained" configuration of the
    paper's Figure 2(c).

    ``etx`` is the live quality view: address → hybrid ETX (``inf`` until
    the entry matures), in table order.  Every mutator below writes it, and
    the owning estimator writes it when a fold moves an entry's ETX, so
    reading it never rebuilds anything.  ``changed`` records each address
    whose place in that view was inserted, removed or changed since the
    estimator last handed the set out
    (:meth:`repro.core.interfaces.LinkEstimator.take_changed_neighbors`).
    Pin bits are not part of the view and record nothing.
    """

    def __init__(self, capacity: Optional[int] = 10, node_id: int = -1) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        #: The owning node (names the table in probe events).
        self.node_id = node_id
        self._entries: Dict[int, NeighborEntry] = {}
        #: The live quality view (address → ETX, table order).
        self.etx: Dict[int, float] = {}
        #: Addresses whose place in ``etx`` moved since the last hand-out.
        self.changed: Set[int] = set()
        self.evictions = 0
        #: Observation hook (:mod:`repro.sim.probe`), set by the network.
        self.probe: Optional["Monitor"] = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, addr: int) -> bool:
        return addr in self._entries

    def __iter__(self) -> Iterator[NeighborEntry]:
        return iter(list(self._entries.values()))

    def find(self, addr: int) -> Optional[NeighborEntry]:
        return self._entries.get(addr)

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._entries) >= self.capacity

    def addresses(self) -> List[int]:
        return list(self._entries.keys())

    # ------------------------------------------------------------------
    def insert(self, addr: int) -> NeighborEntry:
        """Insert ``addr`` into a free slot.  Raises if full or present."""
        if addr in self._entries:
            raise ValueError(f"{addr} already in table")
        if self.full:
            raise ValueError("table full; evict first")
        entry = NeighborEntry(addr=addr)
        self._entries[addr] = entry
        self.etx[addr] = math.inf
        self.changed.add(addr)
        return entry

    def evict_random_unpinned(
        self, rng: Random, eligible: Optional[Callable[[NeighborEntry], bool]] = None
    ) -> Optional[int]:
        """Evict a uniformly random unpinned entry; returns its address.

        ``eligible`` optionally narrows the victim pool further (e.g. to
        entries that have had their evaluation window).  Returns ``None``
        (and evicts nothing) when no entry qualifies — the pin bit is an
        absolute guarantee to the network layer.
        """
        pool = [
            addr
            for addr, e in self._entries.items()
            if not e.pinned and (eligible is None or eligible(e))
        ]
        if not pool:
            return None
        victim = rng.choice(pool)
        del self._entries[victim]
        del self.etx[victim]
        self.changed.add(victim)
        self.evictions += 1
        return victim

    def clear(self) -> None:
        """Wipe every entry in place (node reboot: the RAM table is gone).

        The instance survives so external references (the estimator, an
        attached probe) stay valid; ``evictions`` keeps counting —
        it tallies events, not state.
        """
        self.changed.update(self._entries)
        self._entries.clear()
        self.etx.clear()

    def remove(self, addr: int) -> bool:
        """Explicitly drop an entry (pinned or not).  Returns False if absent."""
        if addr in self._entries:
            if self.probe is not None:
                self.probe.entry_removed(self.node_id, addr)
            del self._entries[addr]
            del self.etx[addr]
            self.changed.add(addr)
            return True
        return False

    # ------------------------------------------------------------------
    def pin(self, addr: int) -> bool:
        entry = self._entries.get(addr)
        if entry is None:
            return False
        entry.pinned = True
        return True

    def unpin(self, addr: int) -> bool:
        entry = self._entries.get(addr)
        if entry is None:
            return False
        entry.pinned = False
        return True

    def clear_pins(self) -> None:
        for entry in self._entries.values():
            entry.pinned = False
