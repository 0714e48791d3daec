"""A simulated node: radio + MAC + (estimator) + network protocol + app."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Union

from repro.core.estimator import HybridLinkEstimator
from repro.link.mac import Mac
from repro.net.ctp.protocol import CtpProtocol
from repro.phy.radio import Radio
from repro.workloads.collection import CollectionSource

#: Any object exposing start() / send_from_app() / parent / is_root /
#: forwarding plus layers() / stats_objects().
Protocol = Union[CtpProtocol, Any]


@dataclass
class Node:
    """Composition container for one mote's full stack."""

    node_id: int
    radio: Radio
    mac: Mac
    protocol: Protocol
    #: Present for estimator-based stacks; MultiHopLQI has none.
    estimator: Optional[HybridLinkEstimator]
    source: Optional[CollectionSource]
    boot_time: float
    #: Failure injection: True between a fault crash and its reboot.  Boot
    #: and source-start events check it so a node that crashed before its
    #: staggered boot time never comes up (join/leave churn).
    crashed: bool = False

    @property
    def is_root(self) -> bool:
        return self.protocol.is_root

    @property
    def parent(self) -> Optional[int]:
        return self.protocol.parent

    def layers(self) -> List[Any]:
        """Every layer object of this stack that carries a ``probe``."""
        out: List[Any] = [self.mac]
        if self.estimator is not None:
            out += [self.estimator, self.estimator.table]
        out.extend(self.protocol.layers())
        return out

    def stats_objects(self) -> List[Any]:
        """Every stats dataclass of this stack, bottom layer first."""
        out: List[Any] = [self.mac.stats]
        if self.estimator is not None:
            out.append(self.estimator.stats)
        out.extend(self.protocol.stats_objects())
        return out

    def data_transmissions(self) -> int:
        """Unicast frames this node actually put on the air (data only —
        beacons are broadcast, acks are not counted, per the paper's cost)."""
        return self.mac.stats.tx_unicast
