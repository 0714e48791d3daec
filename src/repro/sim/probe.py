"""The observation contract: one typed event path out of every layer.

Each layer object — :class:`~repro.link.mac.Mac`, the hybrid estimator and
its neighbor table, the CTP, MultiHopLQI and geographic routers, the
forwarding engine, the sink recorder, the medium and the fault
injector — holds one ``probe`` attribute, ``None`` by default, and calls it
at the point where a decision is made, behind a single ``if probe is not
None``.  An unobserved run therefore pays one attribute test per event and
nothing else.

:meth:`repro.sim.network.CollectionNetwork.attach` is the only way to
subscribe a :class:`Monitor`: it points every layer's ``probe`` at the
monitor (or at a :class:`MonitorSet` once several are attached).  Monitors
observe; they consume no randomness and change no simulator state, so a
run with monitors attached is bit-identical to one without.

Every event happens at the engine's current time; monitors read it from
the network :meth:`Monitor.attached` hands them.  Node ids identify the
emitting node; a parent of ``None`` means "no route".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.link.frame import Frame
    from repro.sim.network import CollectionNetwork
    from repro.sim.packets import RxInfo, TxResult


class Monitor:
    """Observer of one network's layer events.  Every method is a no-op;
    subclasses override the events they need."""

    def attached(self, network: "CollectionNetwork") -> None:
        """Called once when ``network.attach(self)`` subscribes this monitor."""

    # -- phy / link ------------------------------------------------------
    def transmission_start(self, sender: int, frame: "Frame") -> None:
        """``sender`` put ``frame`` on the air (medium).  External
        interferers' bursts are not frames and do not emit this."""

    def rx(self, node: int, frame: "Frame", info: "RxInfo") -> None:
        """``node`` decoded a non-ack frame (MAC, before any filtering)."""

    def tx(self, node: int, frame: "Frame", result: "TxResult") -> None:
        """A unicast attempt finished; ``result.sent`` is False when CSMA
        gave up and the frame never reached the air."""

    # -- estimator -------------------------------------------------------
    def est_insert(self, node: int, neighbor: int, mode: str) -> None:
        """A neighbor got a table slot (``free|evict-worst|compare``)."""

    def est_reject(self, node: int, neighbor: int, reason: str) -> None:
        """A neighbor was refused a slot (``no-white|no-compare|all-pinned``)."""

    def pin(self, node: int, neighbor: int) -> None:
        """The network layer set the pin bit on a table entry."""

    def unpin(self, node: int, neighbor: int) -> None:
        """The network layer cleared the pin bit on a table entry."""

    def entry_removed(self, node: int, neighbor: int) -> None:
        """An entry is about to leave the table through ``NeighborTable.remove``."""

    # -- network ---------------------------------------------------------
    def parent_change(self, node: int, old: Optional[int], new: Optional[int]) -> None:
        """``node`` switched parent, acquired its first, or lost its route."""

    def pkt_orig(self, node: int, seq: int) -> None:
        """``node`` queued one application packet with origin sequence ``seq``."""

    def pkt_tx(self, node: int, frame: Any, sent: bool, acked: bool) -> None:
        """One forwarding-level unicast attempt of data ``frame`` completed."""

    def pkt_rx(self, node: int, frame: Any, outcome: str) -> None:
        """Data ``frame`` arrived at ``node`` with its fate
        (``deliver|forward|dup|drop-thl|queue-full``)."""

    def drop(self, node: int, origin: int, seq: int, reason: str) -> None:
        """``node`` dropped packet ``(origin, seq)`` (``retries|queue-full``)."""

    def deliver(self, origin: int, seq: int, thl: int) -> None:
        """A root handed packet ``(origin, seq)`` to the sink recorder."""

    # -- harness ---------------------------------------------------------
    def boot(self, node: int) -> None:
        """``node`` booted its protocol stack."""

    def fault(self, kind: str, fields: Dict[str, Any]) -> None:
        """A fault event landed (see :mod:`repro.faults.injector`)."""

    def run_end(self, network: "CollectionNetwork") -> None:
        """The event loop drained; the result is not computed yet."""


#: Every event method a layer may call on its probe.
EVENTS = tuple(
    name for name in vars(Monitor) if not name.startswith("_") and name != "attached"
)


class MonitorSet(Monitor):
    """Fans each event out to several monitors, in subscription order."""

    def __init__(self, monitors: Sequence[Monitor]) -> None:
        self.monitors = tuple(monitors)


def _fan_out(name: str) -> Any:
    def forward(self: MonitorSet, *args: Any) -> None:
        for monitor in self.monitors:
            getattr(monitor, name)(*args)

    forward.__name__ = name
    forward.__qualname__ = f"MonitorSet.{name}"
    return forward


for _name in EVENTS:
    setattr(MonitorSet, _name, _fan_out(_name))
del _name
