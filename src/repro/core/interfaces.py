"""The four-bit interfaces (paper Section 3.1, Figure 4).

These are the *only* couplings between the link estimator and the three
layers:

* **white bit** — physical → estimator, per received packet.  Arrives on
  :class:`repro.sim.packets.RxInfo`.
* **ack bit** — link → estimator, per transmitted unicast.  Arrives on
  :class:`repro.sim.packets.TxResult`.
* **pin bit** — network → estimator, per table entry.  Exposed as
  :meth:`LinkEstimator.pin` / :meth:`LinkEstimator.unpin`.
* **compare bit** — estimator → network query, per received routing packet.
  Exposed as :class:`CompareBitProvider`.

Any network layer that implements :class:`CompareBitProvider` and any radio
that can fill in ``RxInfo.white_bit`` (or always leave it clear) can host
any estimator implementing :class:`LinkEstimator` — the decoupling the
paper argues for.
"""

from __future__ import annotations

import abc
from typing import Iterable, Optional, Protocol, runtime_checkable


from repro.link.frame import NetworkFrame
from repro.sim.packets import RxInfo


@runtime_checkable
class CompareBitProvider(Protocol):
    """The network layer's side of the compare-bit interface."""

    def compare_bit(self, frame: NetworkFrame, info: RxInfo) -> bool:
        """Is the route offered by ``frame``'s sender better than the route
        through at least one current link-table entry?

        The network layer need not decide for every packet — only for those
        carrying route-quality information (``frame.carries_route_info``).
        """
        ...


class LinkEstimator(abc.ABC):
    """The estimator interface network layers program against."""

    #: Callback sink for unwrapped frames and send-done events.  The network
    #: layer wires this at stack-construction time; declaring it here keeps
    #: that wiring inside the four-bit contract, so network code never needs
    #: a concrete estimator type.
    client: Optional["EstimatorClient"] = None
    #: The network layer's compare-bit implementation (may arrive after
    #: construction, once the routing engine exists).
    compare_provider: Optional[CompareBitProvider] = None

    # -- estimates ------------------------------------------------------
    @abc.abstractmethod
    def link_quality(self, neighbor: int) -> float:
        """Current ETX estimate of the (bidirectional) link to ``neighbor``.

        Returns ``float('inf')`` for unknown or not-yet-mature neighbors.
        """

    @abc.abstractmethod
    def neighbors(self) -> Iterable[int]:
        """Addresses currently in the link table."""

    @property
    @abc.abstractmethod
    def quality_version(self) -> int:
        """Counter that changes whenever :meth:`neighbor_qualities` may.

        Implementations bump it on every table insert, removal, eviction
        and wipe, and on every change to an entry's ETX.  Equal versions
        promise an identical ``(neighbor, ETX)`` view in the same order,
        which lets the network layer skip re-deriving a decision from an
        unchanged view (CTP's parent re-evaluation memo, DESIGN.md §6).
        Pin bits are not part of the view.
        """

    def neighbor_qualities(self) -> "list[tuple[int, float]]":
        """``(address, link ETX)`` for every table entry.

        Equivalent to querying :meth:`link_quality` for each address in
        :meth:`neighbors`; implementations sitting on the routing hot path
        override this with a single-pass version.  The order matches
        :meth:`neighbors`.
        """
        link_quality = self.link_quality
        return [(neighbor, link_quality(neighbor)) for neighbor in self.neighbors()]

    # -- pin bit --------------------------------------------------------
    @abc.abstractmethod
    def pin(self, neighbor: int) -> bool:
        """Set the pin bit: forbid evicting ``neighbor``.  False if absent."""

    @abc.abstractmethod
    def unpin(self, neighbor: int) -> bool:
        """Clear the pin bit.  False if absent."""

    @abc.abstractmethod
    def clear_pins(self) -> None:
        """Clear every pin bit (e.g. on route recomputation)."""

    # -- datapath (the estimator is a layer 2.5) -------------------------
    @abc.abstractmethod
    def send(self, frame: NetworkFrame) -> bool:
        """Wrap ``frame`` in the estimator header/footer and hand it to the
        MAC.  Returns False when the MAC buffer is busy."""


class EstimatorClient(Protocol):
    """Callbacks a network layer registers with its estimator."""

    def on_receive(self, frame: NetworkFrame, info: RxInfo, le_src: int) -> None:
        """A network frame arrived (unwrapped from the LE header)."""
        ...

    def on_send_done(self, frame: NetworkFrame, sent: bool, acked: bool) -> None:
        """The frame handed to :meth:`LinkEstimator.send` left the MAC."""
        ...
