"""CTP protocol facade: wires routing + forwarding to one link estimator.

This is the composition point the paper's architecture prescribes: the
network layer talks to the estimator only through the
:class:`~repro.core.interfaces.LinkEstimator` interface and answers its
compare-bit queries; the estimator talks to the MAC below.  Any estimator
honoring the interface (any Figure 6 preset) slots in unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Any, Optional, Tuple

from repro.core.interfaces import EstimatorClient, LinkEstimator
from repro.link.frame import NetworkFrame
from repro.net.ctp.forwarding import CtpForwardingConfig, CtpForwardingEngine
from repro.net.ctp.frames import CtpDataFrame, CtpRoutingFrame
from repro.net.ctp.routing import CtpRoutingConfig, CtpRoutingEngine
from repro.sim.engine import Engine
from repro.sim.packets import RxInfo


@dataclass(frozen=True)
class CtpConfig:
    """Bundled routing + forwarding parameters for one CTP stack."""

    routing: CtpRoutingConfig = field(default_factory=CtpRoutingConfig)
    forwarding: CtpForwardingConfig = field(default_factory=CtpForwardingConfig)

    @classmethod
    def scaled_for(cls, radio_params, data_bytes: int = 44) -> "CtpConfig":
        """Timing constants scaled to the radio's data-frame airtime.

        The defaults above assume a 250 kbps CC2420 (≈1.6 ms frames).  A
        19.2 kbps CC1000 frame occupies the channel ~15× longer; reusing
        millisecond-scale retry and pacing delays there synchronizes
        retransmissions into a collision storm and collapses the channel.
        The multipliers reproduce the CC2420 defaults exactly and scale
        every other radio by airtime.
        """
        airtime = radio_params.airtime(data_bytes)
        routing = CtpRoutingConfig(
            beacon_i_min_s=max(0.125, 78.0 * airtime),
        )
        forwarding = CtpForwardingConfig(
            retry_min_s=12.5 * airtime,
            retry_max_s=37.5 * airtime,
            pace_min_s=1.25 * airtime,
            pace_max_s=6.25 * airtime,
        )
        return cls(routing=routing, forwarding=forwarding)


class CtpProtocol(EstimatorClient):
    """A node's complete CTP stack above the link estimator."""

    def __init__(
        self,
        engine: Engine,
        estimator: LinkEstimator,
        node_id: int,
        is_root: bool,
        rng: Random,
        config: CtpConfig = CtpConfig(),
    ) -> None:
        self.node_id = node_id
        self.estimator = estimator
        self.routing = CtpRoutingEngine(engine, estimator, node_id, is_root, rng, config.routing)
        self.forwarding = CtpForwardingEngine(
            engine, estimator, self.routing, node_id, rng, config.forwarding
        )
        estimator.client = self
        estimator.compare_provider = self.routing

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Boot the stack (start the Trickle beacon timer)."""
        self.routing.start()

    def fault_shutdown(self) -> None:
        """Node crash: drop all RAM state in routing and forwarding.

        The MAC and estimator are shut down separately by the fault
        injector (they belong to other layers).
        """
        self.routing.fault_shutdown()
        self.forwarding.fault_shutdown()

    def fault_restart(self) -> None:
        """Node reboot: bring the stack back with no route, like a boot."""
        self.routing.fault_restart()

    @property
    def is_root(self) -> bool:
        """Whether this node is a collection sink."""
        return self.routing.is_root

    @property
    def parent(self) -> Optional[int]:
        """Current parent (None before a route exists)."""
        return self.routing.parent

    def path_etx(self) -> float:
        """Current path ETX to the root (inf with no route)."""
        return self.routing.path_etx()

    def send_from_app(self) -> bool:
        """Originate one collection packet (False if the queue is full)."""
        return self.forwarding.send_from_app()

    def layers(self) -> Tuple[Any, ...]:
        """The stack's probe-carrying layer objects."""
        return (self.routing, self.forwarding)

    def stats_objects(self) -> Tuple[Any, ...]:
        """The stack's stats dataclasses, in report order."""
        return (self.routing.stats, self.forwarding.stats)

    # ------------------------------------------------------------------
    # EstimatorClient
    # ------------------------------------------------------------------
    def on_receive(self, frame: NetworkFrame, info: RxInfo, le_src: int) -> None:
        """EstimatorClient: dispatch routing vs data frames."""
        if isinstance(frame, CtpRoutingFrame):
            self.routing.on_beacon_received(frame, info, le_src)
        elif isinstance(frame, CtpDataFrame):
            self.forwarding.on_data_received(frame)

    def on_send_done(self, frame: NetworkFrame, sent: bool, acked: bool) -> None:
        """EstimatorClient: route data completions to the forwarding engine."""
        if isinstance(frame, CtpDataFrame):
            self.forwarding.on_send_done(frame, sent, acked)
        # Routing beacons are fire-and-forget broadcasts.
